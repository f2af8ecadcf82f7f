import random

import pytest
from hypothesis import given, settings, strategies as st

from rcv_forensics import (
    BordaConfig,
    BordaModel,
    Candidate,
    CandidateRoster,
    RcvOptions,
    TiePolicy,
    TieError,
    ValidationError,
    WriteinPolicy,
    borda,
    bucklin_topk,
    condorcet_analysis,
    minimax_best,
    plurality,
    plurality_runoff,
    rcv_tabulate,
)
import rcv_forensics.methods as methods
from rcv_forensics.profiles import PreferenceProfile

from conftest import make_random_profile

ABC = CandidateRoster(tuple(Candidate(c, c) for c in "ABC"))
AB = CandidateRoster(tuple(Candidate(c, c) for c in "AB"))


def profile_of(counts, roster=ABC):
    return PreferenceProfile.from_counts(roster, counts)


class TestRcv:
    def test_table1_rounds(self, table1):
        result = rcv_tabulate(table1)
        assert result.winner == "H"
        r1, r2 = result.rounds
        assert r1.tallies == {"H": 8227, "M": 8190, "R": 10015}
        assert r1.eliminated == ("M",)
        (transfer,) = r1.transfers
        assert transfer.source == "M"
        assert transfer.to == {"H": 4194, "R": 2150}
        assert transfer.exhausted == 1846
        assert r2.tallies == {"H": 12421, "R": 12165}

    def test_synthetic_correct_mode(self, synthetic_profile):
        result = rcv_tabulate(synthetic_profile)
        assert result.winner == "H"
        wi_round = result.rounds[0]
        assert wi_round.number == 0
        assert wi_round.tallies == {"H": 8147, "M": 8176, "R": 9977, "WI1": 269, "WI2": 0}
        assert wi_round.eliminated == ("WI1", "WI2")
        wi1 = next(t for t in wi_round.transfers if t.source == "WI1")
        assert wi1.to == {"H": 80, "M": 14, "R": 38}
        assert wi1.exhausted == 137
        assert result.rounds[1].tallies == {"H": 8227, "M": 8190, "R": 10015}

    def test_synthetic_buggy_mode(self, synthetic_profile):
        result = rcv_tabulate(synthetic_profile, RcvOptions(buggy_first_round=True))
        assert result.winner == "R"
        first_official = result.rounds[1]
        assert first_official.tallies == {"H": 8112, "M": 8153, "R": 9954}
        assert first_official.pending == 213
        assert first_official.exhausted == 137
        assert first_official.eliminated == ("H",)
        rejoin = next(t for t in first_official.transfers if t.source is None)
        assert rejoin.to == {"M": 37, "R": 61}
        assert rejoin.exhausted == 115
        assert result.rounds[2].tallies == {"M": 11753, "R": 12352}

    def test_buggy_requires_eliminate_first(self):
        with pytest.raises(ValidationError):
            RcvOptions(
                writein_policy=WriteinPolicy.TREAT_AS_CANDIDATES, buggy_first_round=True
            )

    def test_writeins_as_ordinary_candidates(self, synthetic_profile):
        result = rcv_tabulate(
            synthetic_profile, RcvOptions(writein_policy=WriteinPolicy.TREAT_AS_CANDIDATES)
        )
        assert result.winner == "H"
        assert result.rounds[0].number == 1  # no batch write-in round
        assert result.rounds[0].eliminated == ("WI2",)
        assert result.rounds[1].eliminated == ("WI1",)

    def test_single_candidate_wins_immediately(self):
        roster = CandidateRoster((Candidate("A", "A"),))
        result = rcv_tabulate(profile_of({("A",): 3}, roster))
        assert result.winner == "A"
        assert len(result.rounds) == 1

    def test_empty_profile_rejected(self):
        with pytest.raises(ValidationError):
            rcv_tabulate(PreferenceProfile(ABC, {}))

    def test_elimination_tie_raises_with_names(self):
        profile = profile_of({("A",): 5, ("B",): 5, ("C",): 7})
        with pytest.raises(TieError, match="A, B"):
            rcv_tabulate(profile)

    def test_lex_tie_policy_eliminates_smallest(self):
        profile = profile_of({("A",): 5, ("B", "A"): 5, ("C",): 7})
        result = rcv_tabulate(profile, RcvOptions(tie_policy=TiePolicy.ELIMINATE_LEX_SMALLEST))
        assert result.rounds[0].eliminated == ("A",)

    def test_buggy_equals_correct_without_flags(self, table1):
        assert rcv_tabulate(table1, RcvOptions(buggy_first_round=True)) == rcv_tabulate(table1)

    def test_round_conservation(self, synthetic_profile):
        for options in (RcvOptions(), RcvOptions(buggy_first_round=True)):
            result = rcv_tabulate(synthetic_profile, options)
            for rnd in result.rounds:
                assert sum(rnd.tallies.values()) + rnd.exhausted + rnd.pending == 26569


class TestPlurality:
    def test_table1(self, table1):
        tallies, winner = plurality(table1)
        assert winner == "R"
        assert tallies["R"] == 10015

    def test_single_ballot(self):
        _, winner = plurality(profile_of({("A", "B"): 1}))
        assert winner == "A"

    def test_tie_raises(self):
        with pytest.raises(TieError):
            plurality(profile_of({("A",): 5, ("B",): 5}))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValidationError, match="^cannot tabulate an empty profile$"):
            plurality(PreferenceProfile(ABC, {}))


class TestPluralityRunoff:
    def test_table1(self, table1):
        result = plurality_runoff(table1)
        assert result.winner == "H"
        assert result.rounds[0].eliminated == ("M",)
        assert result.rounds[1].tallies == {"H": 12421, "R": 12165}

    def test_synthetic_writeins_compete(self, synthetic_profile):
        result = plurality_runoff(synthetic_profile)
        assert result.winner == "R"
        assert set(result.rounds[0].eliminated) == {"H", "WI1", "WI2"}
        assert result.rounds[1].tallies == {"M": 11753, "R": 12352}

    def test_two_candidates_is_head_to_head(self):
        profile = profile_of({("A", "B"): 3, ("B", "A"): 4}, AB)
        result = plurality_runoff(profile)
        assert result.winner == "B"
        assert result.rounds[1].tallies == {"A": 3, "B": 4}

    def test_tie_for_second_raises(self):
        with pytest.raises(TieError):
            plurality_runoff(profile_of({("A",): 5, ("B",): 5, ("C",): 7}))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValidationError, match="empty profile"):
            plurality_runoff(PreferenceProfile(ABC, {}))

    def test_conservation(self, synthetic_profile):
        result = plurality_runoff(synthetic_profile)
        for rnd in result.rounds:
            assert sum(rnd.tallies.values()) + rnd.exhausted == 26569


class TestBorda:
    def test_table1_optimistic(self, table1):
        scores, winner = borda(table1, BordaConfig(BordaModel.OPTIMISTIC, 3))
        assert scores == {"H": 29329, "M": 29190, "R": 28690}
        assert winner == "H"

    def test_table1_pessimistic(self, table1):
        scores, winner = borda(table1, BordaConfig(BordaModel.PESSIMISTIC, 3))
        assert scores == {"H": 23743, "M": 23123, "R": 24517}
        assert winner == "R"

    def test_complete_ballot_models_coincide(self):
        profile = profile_of({("A", "B", "C"): 1})
        for model in BordaModel:
            scores, _ = borda(profile, BordaConfig(model, 3))
            assert sum(scores.values()) == 3  # n(n-1)/2 for n = 3
            assert scores == {"A": 2, "B": 1, "C": 0}

    def test_overlong_ballot_rejected(self):
        with pytest.raises(ValidationError):
            borda(profile_of({("A", "B", "C"): 1}), BordaConfig(BordaModel.OPTIMISTIC, 2))

    def test_optimistic_dominates_pessimistic_random(self):
        rng = random.Random(11)
        for _ in range(100):
            profile = make_random_profile(rng)
            n = len(profile.roster.candidates)
            opt, _ = _scores_only(profile, BordaModel.OPTIMISTIC, n)
            pes, _ = _scores_only(profile, BordaModel.PESSIMISTIC, n)
            assert all(opt[c] >= pes[c] for c in opt)

    def test_pessimistic_total_matches_formula(self):
        rng = random.Random(12)
        for _ in range(50):
            profile = make_random_profile(rng)
            n = len(profile.roster.candidates)
            scores, _ = _scores_only(profile, BordaModel.PESSIMISTIC, n)
            expected = sum(
                count * sum(n - i for i in range(1, len(ranking) + 1))
                for (ranking, _), count in profile.entries.items()
            )
            assert sum(scores.values()) == expected


def _scores_only(profile, model, n):
    ids = profile.roster.ids()
    scores = {c: 0 for c in ids}
    try:
        return borda(profile, BordaConfig(model, n))
    except TieError as exc:
        # scores are still well defined on ties; recompute without the argmax
        for (ranking, _), count in profile.entries.items():
            for i, c in enumerate(ranking):
                scores[c] += (n - 1 - i) * count
            if model is BordaModel.OPTIMISTIC:
                pts = max(n - len(ranking) - 1, 0)
                for c in ids:
                    if c not in ranking:
                        scores[c] += pts * count
        return scores, None


def reference_borda_scores(profile, config):
    """The scores as ``borda`` summed them with a loop over the roster for
    each entry's unranked candidates. It is the only copy and exists to check
    ``borda``'s one accumulator of unranked points."""
    n = config.n_points
    ids = profile.roster.ids()
    scores = {cid: 0 for cid in ids}
    for (ranking, _), count in profile.entries.items():
        k = len(ranking)
        if k > n:
            raise ValidationError(
                f"ballot ranks {k} candidates but the point scale covers only {n}"
            )
        for i, cid in enumerate(ranking):
            scores[cid] += (n - 1 - i) * count
        if config.model is BordaModel.OPTIMISTIC and k < len(ids):
            unranked_points = max(n - k - 1, 0)
            if unranked_points:
                ranked = set(ranking)
                for cid in ids:
                    if cid not in ranked:
                        scores[cid] += unranked_points * count
    return scores


def borda_outcome(score, profile, config):
    """The scores in order and the winner or the tied candidates, or the
    error text, of one Borda count made by ``score``."""
    try:
        scores = score(profile, config)
    except ValidationError as exc:
        return str(exc)
    try:
        return list(scores.items()), methods._unique(scores, "borda")
    except TieError as exc:
        return list(scores.items()), exc.tied


@pytest.mark.parametrize("model", list(BordaModel))
def test_borda_matches_per_entry_reference(model, monkeypatch):
    """``borda`` gives the reference's scores, in roster order, and so its
    winner or tie, or its error, with a point scale below, equal to and
    above the roster size, on profiles with empty and full rankings."""
    passed = []  # the scores each count hands to _unique, ties included
    unique = methods._unique
    monkeypatch.setattr(
        methods, "_unique", lambda scores, context: passed.append(scores) or unique(scores, context)
    )

    def borda_scores(profile, config):
        passed.clear()
        try:
            borda(profile, config)
        except TieError:
            pass
        (scores,) = passed
        return scores

    rng = random.Random(29)
    for _ in range(1000):
        profile = make_random_profile(rng, max_count=9, flag_rate=0.3, writein_rate=0.3)
        ids = profile.roster.ids()
        entries = dict(profile.entries)
        for ranking in ((), tuple(rng.sample(ids, len(ids)))):
            if rng.random() < 0.5:
                key = (ranking, rng.random() < 0.5)
                entries[key] = entries.get(key, 0) + rng.randint(1, 9)
        profile = PreferenceProfile(profile.roster, entries)
        config = BordaConfig(model, max(2, len(ids) + rng.randint(-2, 2)))
        assert borda_outcome(borda_scores, profile, config) == (
            borda_outcome(reference_borda_scores, profile, config)
        )


class TestBucklin:
    def test_table1_top2(self, table1):
        scores, winner = bucklin_topk(table1, 2)
        assert scores == {"H": 15516, "M": 14933, "R": 14502}
        assert winner == "H"

    def test_k1_equals_first_place_tally(self, table1):
        scores, _ = bucklin_topk(table1, 1)
        assert scores == table1.first_place_tally()

    def test_k_at_roster_size_counts_every_ranked(self):
        profile = profile_of({("A", "B"): 2, ("A",): 1, ("C",): 1})
        scores, _ = bucklin_topk(profile, 3)
        assert scores == {"A": 3, "B": 2, "C": 1}

    def test_invalid_k(self, table1):
        with pytest.raises(ValidationError):
            bucklin_topk(table1, 0)


def reference_majority_cycle(candidates, beats):
    """The recursive depth-first cycle search that ``_find_majority_cycle``
    replaced; the only copy, kept to check the iterative one."""
    color = {}
    stack = []

    def dfs(v):
        color[v] = 1
        stack.append(v)
        for w in candidates:
            if w == v or not beats[(v, w)]:
                continue
            if color.get(w, 0) == 1:
                return tuple(stack[stack.index(w) :])
            if color.get(w, 0) == 0:
                found = dfs(w)
                if found:
                    return found
        color[v] = 2
        stack.pop()
        return None

    for v in candidates:
        if color.get(v, 0) == 0:
            cycle = dfs(v)
            if cycle:
                start = min(range(len(cycle)), key=lambda i: candidates.index(cycle[i]))
                return cycle[start:] + cycle[:start]
    return None


class TestCondorcet:
    def test_table1_cycle(self, table1):
        report = condorcet_analysis(table1.pairwise_matrix())
        assert report.condorcet_winner is None
        assert report.cycle == ("H", "R", "M")
        assert report.minimax_scores == {"H": 48, "M": 599, "R": 256}
        assert minimax_best(report) == "H"

    def test_unanimous_winner(self):
        profile = profile_of({("A", "B", "C"): 3, ("A", "C"): 2})
        report = condorcet_analysis(profile.pairwise_matrix())
        assert report.condorcet_winner == "A"
        assert report.cycle is None
        assert report.minimax_scores["A"] == 0

    def test_cycle_search_matches_recursive_reference(self):
        """The cycle search keeps its own stack; on random beat relations
        (some pairs tied, so neither beats the other) it finds the same
        cycle, in the same rotation, as the recursive search it replaced.
        The search reads counts; a side that wins counts 1 to the other's 0,
        and a tie is equal counts."""
        rng = random.Random(5)
        for _ in range(2000):
            ids = tuple("ABCDEFG"[: rng.randint(1, 7)])
            beats, counts = {}, {x: {} for x in ids}
            for i, x in enumerate(ids):
                for y in ids[i + 1 :]:
                    side = rng.randrange(3)
                    beats[(x, y)], beats[(y, x)] = side == 0, side == 1
                    counts[x][y], counts[y][x] = int(side == 0), int(side == 1)
            assert methods._find_majority_cycle(counts) == reference_majority_cycle(ids, beats)

    def test_matches_definitions_on_random_profiles(self):
        """Who beats whom, the winner, the cycle and the minimax scores,
        against a reference read straight off n(x, y) for every ordered
        pair. Small counts make exactly tied pairs common, so a tie counted
        as a win or a loss shows."""
        rng = random.Random(17)
        ties = 0
        for _ in range(600):
            profile = make_random_profile(rng, max_types=5, max_count=3)
            rows, ids = profile.pairwise_matrix(), profile.roster.ids()
            assert tuple(rows) == ids
            beats = {(x, y): rows[x][y] > rows[y][x] for x in ids for y in ids if x != y}
            winner = next(
                (x for x in ids if all(beats[(x, y)] for y in ids if y != x)), None
            )
            expected = methods.CondorcetReport(
                winner,
                None if winner else reference_majority_cycle(ids, beats),
                {
                    x: max([rows[y][x] - rows[x][y] for y in ids if y != x] + [0])
                    for x in ids
                },
            )
            assert condorcet_analysis(rows) == expected
            ties += sum(rows[x][y] == rows[y][x] for x in ids for y in ids if x < y)
        assert ties > 100

    def test_consistency_no_cycle_through_winner(self):
        rng = random.Random(13)
        for _ in range(100):
            profile = make_random_profile(rng)
            report = condorcet_analysis(profile.pairwise_matrix())
            if report.condorcet_winner is not None:
                assert report.cycle is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_round_conservation_random(seed):
    rng = random.Random(seed)
    profile = make_random_profile(rng, writein_rate=0.3)
    if profile.total() == 0:
        return
    options = RcvOptions(
        tie_policy=TiePolicy.ELIMINATE_LEX_SMALLEST,
        buggy_first_round=rng.random() < 0.5,
    )
    result = rcv_tabulate(profile, options)
    total = profile.total()
    for rnd in result.rounds:
        assert sum(rnd.tallies.values()) + rnd.exhausted + rnd.pending == total
    assert result.winner in profile.roster.ids()
    for rnd, nxt in zip(result.rounds, result.rounds[1:]):
        if not (options.buggy_first_round and rnd.number == 0):  # flagged ballots go pending
            assert_transfers_flow(rnd, nxt)
    try:
        runoff = plurality_runoff(profile)
    except (TieError, ValidationError):
        return
    assert_transfers_flow(*runoff.rounds)


def assert_transfers_flow(rnd, nxt):
    """The next round's count is this round's plus what its transfers move."""
    for cid, votes in nxt.tallies.items():
        assert votes == rnd.tallies[cid] + sum(t.to.get(cid, 0) for t in rnd.transfers)
    assert nxt.exhausted == rnd.exhausted + sum(t.exhausted for t in rnd.transfers)
