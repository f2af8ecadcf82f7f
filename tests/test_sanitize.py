import io
import json
import os
import random

import pytest
from hypothesis import given, strategies as st

from rcv_forensics import (
    ALAMEDA,
    ALASKA,
    MINNEAPOLIS,
    Candidate,
    CandidateRoster,
    POLICY_PRESETS,
    CleanBallot,
    OvervotePolicy,
    RawBallot,
    RawBallots,
    SanitizePolicy,
    SanitizeStats,
    SkipPolicy,
    emit_clean_cvr,
    emit_cvr,
    fixture_roster,
    load_builtin_fixture,
    parse_cvr,
    sanitize_all,
    sanitize_ballot,
    sanitize_ballots,
    sanitize_stats,
)
import rcv_forensics.cvr as cvr_module
from rcv_forensics.cli import main
from rcv_forensics.cvr import roster_to_json_dict
import rcv_forensics.sanitize as sanitize_module

ABCDE = CandidateRoster(tuple(Candidate(c, c) for c in "ABCDE"))
OAKLAND = fixture_roster("oakland-full-synthetic")

ALL_POLICIES = [
    SanitizePolicy(skip, overvote)
    for skip in SkipPolicy
    for overvote in OvervotePolicy
]


def clean(slots, policy, roster=ABCDE):
    return sanitize_ballot(RawBallot("x", slots), policy, roster)


class TestSkipHandling:
    def test_single_skip_shifts_up_everywhere(self):
        for policy in ALL_POLICIES:
            assert clean((("A",), (), ("B",)), policy).ranking == ("A", "B")
            assert clean(((), ("A",), ("B",)), policy).ranking == ("A", "B")

    def test_multi_skip_alameda_shifts_up(self):
        ballot = clean((("A",), (), (), (), ("B",)), ALAMEDA)
        assert ballot.ranking == ("A", "B")
        assert not ballot.raw_first_invalid

    def test_multi_skip_alaska_terminates(self):
        assert clean((("A",), (), (), (), ("B",)), ALASKA).ranking == ("A",)

    def test_alaska_two_leading_skips_empty(self):
        assert clean(((), (), ("A",)), ALASKA).ranking == ()


class TestOvervoteHandling:
    def test_alameda_truncates(self):
        assert clean((("A",), ("B", "C"), ("D",)), ALAMEDA).ranking == ("A",)

    def test_minneapolis_skips(self):
        assert clean((("A",), ("B", "C"), ("D",)), MINNEAPOLIS).ranking == ("A", "D")

    def test_overvote_counts_toward_alaska_double_skip(self):
        policy = SanitizePolicy(SkipPolicy.TWO_CONSECUTIVE_TERMINATE, OvervotePolicy.SKIP)
        assert clean((("A",), (), ("B", "C"), ("D",)), policy).ranking == ("A",)


class TestDuplicates:
    def test_duplicates_never_terminate(self):
        for policy in ALL_POLICIES:
            assert clean((("A",), ("A",), ("B",), (), ("B",)), policy).ranking == ("A", "B")


class TestRawFirstInvalidFlag:
    def test_skipped_first_sets_flag(self):
        assert clean(((), ("A",)), ALAMEDA).raw_first_invalid

    def test_writein_first_sets_flag(self):
        ballot = sanitize_ballot(RawBallot("x", (("WI1",), ("H",))), ALAMEDA, OAKLAND)
        assert ballot.ranking == ("WI1", "H")
        assert ballot.raw_first_invalid

    def test_official_first_clears_flag(self):
        ballot = sanitize_ballot(RawBallot("x", (("H",), ("WI1",))), ALAMEDA, OAKLAND)
        assert not ballot.raw_first_invalid

    def test_mixed_overvote_first_not_flagged(self):
        # The miscount concerned ranks holding no valid candidate; a slot-1
        # overvote containing an official candidate does not qualify.
        ballot = sanitize_ballot(RawBallot("x", (("H", "WI1"), ("M",))), ALAMEDA, OAKLAND)
        assert not ballot.raw_first_invalid

    def test_all_writein_overvote_first_flagged(self):
        ballot = sanitize_ballot(RawBallot("x", (("WI1", "WI2"), ("M",))), ALAMEDA, OAKLAND)
        assert ballot.raw_first_invalid

    @pytest.mark.parametrize("flag", [True, False])
    def test_stated_flag_wins(self, flag):
        """A clean CVR line states the flag of its as-cast first rank, which
        its own ranks no longer show; the stated flag is kept as it is."""
        for slots in ((("H",), ("M",)), (("WI1",), ("H",)), ((), ("H",)), ()):
            ballot = sanitize_ballot(RawBallot("x", slots, flag), ALAMEDA, OAKLAND)
            assert ballot.raw_first_invalid is flag


class TestTable2Examples:
    def test_all_six_normalize_to_a_over_b(self):
        ballots = load_builtin_fixture("table2-examples")
        cleaned = [sanitize_ballot(b, ALAMEDA, ABCDE) for b in ballots]
        assert all(c.ranking == ("A", "B") for c in cleaned)
        assert [c.raw_first_invalid for c in cleaned] == [
            False,
            True,
            True,
            False,
            True,
            False,
        ]

    def test_aggregation_and_stats(self):
        ballots = load_builtin_fixture("table2-examples")
        profile, stats = sanitize_all(ballots, ALAMEDA, ABCDE)
        assert profile.entries == {(("A", "B"), False): 3, (("A", "B"), True): 3}
        assert profile.total() == 6
        assert stats.total == 6
        assert stats.ballots_with_overvote == 2
        assert stats.ballots_skipped_then_ranked == 4
        assert stats.invalid_first_with_official == 3


class TestSanitizeAll:
    def test_empty_input(self):
        profile, stats = sanitize_all([], ALAMEDA, ABCDE)
        assert profile.total() == 0
        assert stats == type(stats)(0, 0, 0, 0)

    def test_ballot_with_two_overvotes_counts_once(self):
        ballots = [RawBallot("x", (("A", "B"), ("C", "D")))]
        _, stats = sanitize_all(ballots, ALAMEDA, ABCDE)
        assert stats.ballots_with_overvote == 1

    def test_synthetic_fixture_stats(self, synthetic_raw):
        _, stats = sanitize_all(synthetic_raw, ALAMEDA, OAKLAND)
        assert stats.total == 26569
        assert stats.ballots_with_overvote == 0
        assert stats.ballots_skipped_then_ranked == 81
        assert stats.invalid_first_with_official == 213


ids_strategy = st.lists(st.sampled_from("ABCDE"), unique=True, min_size=1, max_size=5)


@given(ids_strategy, st.sampled_from(ALL_POLICIES))
def test_idempotence_on_clean_ballots(ranking, policy):
    # Distinct singleton slots of official candidates come back unchanged.
    ballot = clean(tuple((c,) for c in ranking), policy)
    assert ballot.ranking == tuple(ranking)
    assert not ballot.raw_first_invalid


@given(ids_strategy)
def test_policies_agree_on_clean_ballots(ranking):
    results = {clean(tuple((c,) for c in ranking), p).ranking for p in ALL_POLICIES}
    assert len(results) == 1


raw_slots = st.lists(
    st.lists(st.sampled_from("ABCDE"), max_size=3), min_size=1, max_size=7
)


@given(raw_slots, st.sampled_from(ALL_POLICIES))
def test_ranking_never_longer_than_nonempty_slots(slots, policy):
    ballot = clean(tuple(tuple(s) for s in slots), policy)
    assert len(ballot.ranking) <= sum(1 for s in slots if s)
    assert len(set(ballot.ranking)) == len(ballot.ranking)


@given(st.lists(raw_slots, max_size=12), st.sampled_from(ALL_POLICIES))
def test_aggregation_conserves_ballots(ballot_slots, policy):
    ballots = [
        RawBallot(f"b{i}", tuple(tuple(s) for s in slots))
        for i, slots in enumerate(ballot_slots)
    ]
    profile, stats = sanitize_all(ballots, policy, ABCDE)
    assert profile.total() == len(ballots) == stats.total


def reference_sanitize_all(ballots, policy, roster):
    """The per-ballot fold that ``sanitize_all`` replaced: every ballot is
    sanitized, tested and counted on its own, and a flag the ballot does not
    state is read from its first slot here. The only copy; it exists to
    check the clean forms per pattern kind and their statistics."""
    officials = set(roster.official_ids())
    writeins = roster.writein_ids()
    counts = {}
    total = overvote = skipped = invalid_first = 0
    for raw in ballots:
        clean = sanitize_ballot(raw, policy, roster)
        flag = raw.raw_first_invalid
        if flag is None:  # an absent or empty first slot, or one of write-ins only
            flag = all(c in writeins for slot in raw.slots[:1] for c in slot)
        key = (clean.ranking, flag)
        counts[key] = counts.get(key, 0) + 1
        total += 1
        if any(len(slot) > 1 for slot in raw.slots):
            overvote += 1
        if () in raw.slots and any(raw.slots[raw.slots.index(()) + 1 :]):
            skipped += 1
        if flag and any(c in officials for c in clean.ranking):
            invalid_first += 1
    return list(counts.items()), SanitizeStats(total, overvote, skipped, invalid_first)


def random_raw_ballots(rng):
    """Ballots of the Oakland roster drawn from a few slot patterns, some with
    a stated flag; ids are unique and some need escaping in JSON."""
    ids = ("H", "M", "R", "WI1", "WI2")
    pool = [
        tuple(tuple(rng.sample(ids, rng.choice((0, 1, 1, 1, 2)))) for _ in range(rng.randint(0, 4)))
        for _ in range(rng.randint(1, 6))
    ]
    flags = (None, None, True, False)
    return [
        RawBallot(rng.choice(("b", 'q"', "é\\")) + str(n), rng.choice(pool), rng.choice(flags))
        for n in range(rng.randint(0, 30))
    ]


def reference_clean_cvr(ballots, policy, roster) -> str:
    """The clean CVR as the per-ballot writer wrote it: each ballot
    sanitized and encoded whole, on its own."""
    lines = []
    for raw in ballots:
        clean = sanitize_ballot(raw, policy, roster)
        doc = {
            "ballot_id": clean.ballot_id,
            "ranks": [[x] for x in clean.ranking],
            "raw_first_invalid": clean.raw_first_invalid,
        }
        lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
    return "".join(lines)


POLICIES = pytest.mark.parametrize(
    "policy", [ALAMEDA, MINNEAPOLIS, ALASKA], ids=["alameda", "minneapolis", "alaska"]
)


@POLICIES
def test_pattern_table_matches_per_ballot_fold(policy):
    """Profile entries (in order), stats, each ballot's clean form and clean
    CVR bytes from the clean forms of the ballots' table equal those of one
    ballot at a time, whether the ballots come as a list, as the table a parse
    of their CVR returns, or as that table's list."""
    rng = random.Random(7)
    for _ in range(300):
        ballots = random_raw_ballots(rng)
        expected = reference_sanitize_all(ballots, policy, OAKLAND)
        sink = io.StringIO()
        emit_cvr(ballots, sink)
        parsed = parse_cvr(io.StringIO(sink.getvalue()), OAKLAND)
        for source in (ballots, parsed, list(parsed)):
            profile, stats = sanitize_all(source, policy, OAKLAND)
            assert (list(profile.entries.items()), stats) == expected
            table = RawBallots.of(source)
            forms = sanitize_ballots(table, policy, OAKLAND)
            assert sanitize_stats(table, forms, OAKLAND) == expected[1]
            cleaned = [
                CleanBallot(ballot_id, *forms[kind][0])
                for ballot_id, kind in zip(table.ids, table.kinds)
            ]
            assert cleaned == [sanitize_ballot(b, policy, OAKLAND) for b in ballots]
            sink = io.StringIO()
            emit_clean_cvr(table, forms, sink)
            assert sink.getvalue() == reference_clean_cvr(ballots, policy, OAKLAND)


@pytest.mark.parametrize("name", ["alameda", "minneapolis", "alaska"])
def test_sanitize_command_writes_per_ballot_bytes(name, tmp_path):
    """The ``sanitize`` command's clean CVR, written from each ballot's id
    and pattern, has the bytes of the per-ballot writer."""
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps(roster_to_json_dict(OAKLAND)))
    cvr, cleaned = tmp_path / "votes.jsonl", tmp_path / "clean.jsonl"
    rng = random.Random(11)
    for _ in range(20):
        ballots = random_raw_ballots(rng)
        with open(cvr, "w", encoding="utf-8") as sink:
            emit_cvr(ballots, sink)
        argv = ["sanitize", "--input", str(cvr), "--roster", str(roster),
                "--policy", name, "--output", str(cleaned)]
        assert main(argv) == 0
        expected = reference_clean_cvr(ballots, POLICY_PRESETS[name], OAKLAND)
        assert cleaned.read_text(encoding="utf-8") == expected


def test_sanitizes_each_raw_pattern_once(synthetic_raw, monkeypatch):
    calls = []
    original = sanitize_module._clean

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(sanitize_module, "_clean", counted)
    profile, _ = sanitize_all(synthetic_raw, ALAMEDA, OAKLAND)
    patterns = {(b.slots, b.raw_first_invalid) for b in synthetic_raw}
    assert len(calls) == len(patterns) < len(synthetic_raw) == profile.total()


@pytest.mark.parametrize(
    "argv", ["sanitize", "tabulate --method rcv", "compare", "audit --checks all"],
    ids=["sanitize", "tabulate", "compare", "audit"],
)
def test_counts_kinds_once_per_command(argv, monkeypatch):
    """A command counts the ballots of each kind of its table once, in
    ``sanitize_ballots``, and every later step reads those counts."""
    counted = counting(monkeypatch, sanitize_module, "Counter")
    assert main([*argv.split(), "--fixture", "table2-examples", "--output", os.devnull]) == 0
    assert len(counted) == 1


def counting(monkeypatch, module, name):
    """Calls of ``module.name`` from here on, each as its arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_synthetic_cvr_work_pinned(synthetic_raw, monkeypatch):
    """The parse of the synthetic CVR builds no ballot object, one pattern
    per distinct (slots, flag), and its sanitize runs once per pattern: 22
    ``_clean`` calls for 26,569 ballots, each on its pattern's slots and
    stated flag, in pattern order. Neither sanitize nor the clean CVR's
    writer builds a ``RawBallot`` or a ``CleanBallot``."""
    sink = io.StringIO()
    emit_cvr(synthetic_raw, sink)
    built = counting(monkeypatch, cvr_module, "_parsed_ballot")
    clean_built = counting(monkeypatch, sanitize_module, "CleanBallot")
    table = parse_cvr(io.StringIO(sink.getvalue()), OAKLAND)
    assert len(table) == 26569 == len(table.ids) == len(table.kinds)
    forms = sanitize_ballots(table, ALAMEDA, OAKLAND)
    sanitized = counting(monkeypatch, sanitize_module, "_clean")
    profile, stats = sanitize_all(table, ALAMEDA, OAKLAND)
    emit_clean_cvr(table, forms, io.StringIO())
    assert len(sanitized) == len(table.patterns) == 22
    assert all(args[0] is slots for args, (slots, _) in zip(sanitized, table.patterns))
    assert [args[1] for args in sanitized] == [stated for _, stated in table.patterns]
    assert len(built) == len(clean_built) == 0
    assert profile.total() == stats.total == 26569
