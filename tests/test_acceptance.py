"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected integer below is either a published figure for the November
2022 Oakland District 4 School Director contest or was computed with an
independent scratch tabulation before being frozen here. Run with
``pytest tests/test_acceptance.py -v`` for one line per criterion.
"""

import json
import os
import random

import pytest

from rcv_forensics import (
    ALAMEDA,
    BordaConfig,
    BordaModel,
    Direction,
    RcvOptions,
    SpoilerWitness,
    TiePolicy,
    TieError,
    ValidationError,
    borda,
    brute_force_oracle,
    bucklin_topk,
    condorcet_analysis,
    find_spoilers,
    fixture_roster,
    load_builtin_fixture,
    minimax_best,
    parse_cvr,
    plurality,
    plurality_runoff,
    rcv_tabulate,
    sanitize_all,
    sanitize_ballot,
    search_compromise,
    search_monotonicity,
    search_noshow,
    verify_witness,
)
from rcv_forensics.cvr import Candidate, CandidateRoster
from rcv_forensics.sanitize import SanitizePolicy, OvervotePolicy, SkipPolicy

from conftest import make_random_profile

OPTS = RcvOptions()
BUGGY = RcvOptions(buggy_first_round=True)


def report(criterion: str) -> None:
    print(f"[PASS] {criterion}")


def test_criterion_1_round_reproduction(table1):
    result = rcv_tabulate(table1, OPTS)
    r1, r2 = result.rounds
    assert r1.tallies == {"H": 8227, "M": 8190, "R": 10015}
    assert r1.eliminated == ("M",)
    (transfer,) = r1.transfers
    assert transfer.to == {"H": 4194, "R": 2150}
    assert r2.tallies == {"H": 12421, "R": 12165}
    assert result.winner == "H"
    report("criterion 1: round-by-round reproduction, exact")


def test_criterion_2_pairwise_reproduction(table1):
    rows = table1.pairwise_matrix()
    assert rows["M"]["H"] == 11370 and rows["H"]["M"] == 11322
    assert rows["R"]["M"] == 12352 and rows["M"]["R"] == 11753
    assert rows["H"]["R"] == 12421 and rows["R"]["H"] == 12165
    analysis = condorcet_analysis(rows)
    assert analysis.condorcet_winner is None
    assert analysis.cycle == ("H", "R", "M")
    report("criterion 2: pairwise matrix and majority cycle, exact")


def test_criterion_3_bug_replication(synthetic_profile):
    buggy = rcv_tabulate(synthetic_profile, BUGGY)
    assert buggy.rounds[1].tallies == {"H": 8112, "M": 8153, "R": 9954}
    assert buggy.winner == "R"
    assert buggy.rounds[-1].tallies == {"M": 11753, "R": 12352}

    correct = rcv_tabulate(synthetic_profile, OPTS)
    assert correct.rounds[0].tallies == {
        "H": 8147, "M": 8176, "R": 9977, "WI1": 269, "WI2": 0,
    }
    assert correct.rounds[1].tallies == {"H": 8227, "M": 8190, "R": 10015}
    assert correct.winner == "H"
    report("criterion 3: tabulator misconfiguration replicated, exact")


def test_criterion_4_borda_reproduction(table1):
    om, om_winner = borda(table1, BordaConfig(BordaModel.OPTIMISTIC, 3))
    pm, pm_winner = borda(table1, BordaConfig(BordaModel.PESSIMISTIC, 3))
    assert om == {"H": 29329, "M": 29190, "R": 28690} and om_winner == "H"
    assert pm == {"H": 23743, "M": 23123, "R": 24517} and pm_winner == "R"
    report("criterion 4: Borda scores on the published profile, exact")


@pytest.mark.skipif(
    "OAKLAND_D4_CVR" not in os.environ,
    reason="set OAKLAND_D4_CVR to a local copy of the real cast vote record "
    "(converted to this tool's JSONL format) to check the full-data Borda rows",
)
def test_criterion_4_full_data_borda_optional():
    roster = fixture_roster("oakland-full-synthetic")
    with open(os.environ["OAKLAND_D4_CVR"], encoding="utf-8") as stream:
        ballots = parse_cvr(stream, roster)
    profile, _ = sanitize_all(ballots, ALAMEDA, roster)
    om, _ = borda(profile, BordaConfig(BordaModel.OPTIMISTIC, 5))
    pm, _ = borda(profile, BordaConfig(BordaModel.PESSIMISTIC, 5))
    assert (om["H"], om["M"], om["R"]) == (82962, 82823, 82287)
    assert (pm["H"], pm["M"], pm["R"]) == (61969, 60831, 61480)
    report("criterion 4 (optional): full-data Borda rows, exact")


def test_criterion_5_paradox_witnesses(table1, synthetic_profile):
    downward = search_monotonicity(table1, OPTS, Direction.DOWNWARD)
    down = next(w for w in downward.witnesses if w.ballot_type == ("R", "M", "H"))
    assert down.modified_type == ("M", "R", "H")
    assert down.min_count == 38
    assert down.new_winner == "R"
    forty = type(down)(
        down.direction, "R", down.ballot_type, False, down.modified_type, 40, 40, "H", "R"
    )
    assert verify_witness(table1, forty, OPTS)

    upward = search_monotonicity(table1, OPTS, Direction.UPWARD)
    up = next(w for w in upward.witnesses if w.ballot_type == ("R", "H", "M"))
    assert up.modified_type == ("H", "R", "M")
    assert up.min_count == 1826
    two_thousand = type(up)(
        up.direction, "H", up.ballot_type, False, up.modified_type, 2000, 2000, "H", "M"
    )
    assert verify_witness(table1, two_thousand, OPTS)

    compromise = search_compromise(table1, OPTS)
    family = next(
        w
        for w in compromise.witnesses
        if w.ballot_type == ("R", "M", "H")
        and w.promoted_candidate == "M"
        and w.new_winner == "M"
        and w.count <= 1800 <= w.max_count
    )
    staged = table1.replace_ballots(family.ballot_type, ("M", "R", "H"), 1800)
    staged_result = rcv_tabulate(staged, OPTS)
    assert staged_result.winner == "M"
    assert staged_result.rounds[-1].tallies == {"M": 11370, "H": 11322}

    noshow = search_noshow(synthetic_profile, BUGGY)
    assert any(
        w.ballot_type == ("M", "H", "R") and w.count == 42 and w.new_winner == "H"
        for w in noshow.witnesses
    )
    buggy_up = search_monotonicity(synthetic_profile, BUGGY, Direction.UPWARD)
    assert any(
        w.ballot_type == ("M", "R", "H") and w.min_count == 42 and w.new_winner == "H"
        for w in buggy_up.witnesses
    )
    buggy_down = search_monotonicity(synthetic_profile, BUGGY, Direction.DOWNWARD)
    assert buggy_down.witnesses == ()
    report("criterion 5: monotonicity, compromise, and no-show witnesses")


def test_criterion_6_spoiler_reproduction(table1):
    assert rcv_tabulate(table1.remove_candidates({"R"}), OPTS).winner == "M"
    scan = find_spoilers(table1, OPTS, max_subset_size=1)
    assert SpoilerWitness(("R",), "H", "M") in scan.witnesses
    report("criterion 6: removing the losing candidate flips the winner")


def test_criterion_7_method_disagreement(table1, synthetic_profile):
    assert plurality(table1)[1] == "R"
    assert plurality_runoff(synthetic_profile).winner == "R"
    assert rcv_tabulate(table1, OPTS).winner == "H"
    assert borda(table1, BordaConfig(BordaModel.OPTIMISTIC, 3))[1] == "H"
    assert borda(table1, BordaConfig(BordaModel.PESSIMISTIC, 3))[1] == "R"
    assert bucklin_topk(table1, 2)[1] == "H"
    assert minimax_best(condorcet_analysis(table1.pairwise_matrix())) == "H"
    report("criterion 7: seven methods, three different winners")


def test_criterion_8_property_suite(table1):
    # Sanitization idempotence across the four policy combinations.
    roster = CandidateRoster(tuple(Candidate(c, c) for c in "ABCDE"))
    policies = [
        SanitizePolicy(skip, overvote)
        for skip in SkipPolicy
        for overvote in OvervotePolicy
    ]
    from rcv_forensics.cvr import RawBallot
    import itertools

    for ranking in itertools.permutations("ABC"):
        for policy in policies:
            clean = sanitize_ballot(
                RawBallot("x", tuple((c,) for c in ranking)), policy, roster
            )
            assert clean.ranking == ranking
            assert not clean.raw_first_invalid

    # Table 2's six ballots all normalize to A > B under the Alameda rules.
    cleaned = [
        sanitize_ballot(b, ALAMEDA, fixture_roster("table2-examples"))
        for b in load_builtin_fixture("table2-examples")
    ]
    assert all(c.ranking == ("A", "B") for c in cleaned)

    # Per-round conservation on 1,000 randomized profiles.
    rng = random.Random(20221108)
    checked = 0
    while checked < 1000:
        profile = make_random_profile(rng, writein_rate=0.25)
        options = RcvOptions(
            tie_policy=TiePolicy.ELIMINATE_LEX_SMALLEST,
            buggy_first_round=rng.random() < 0.5,
        )
        result = rcv_tabulate(profile, options)
        total = profile.total()
        for rnd in result.rounds:
            assert sum(rnd.tallies.values()) + rnd.exhausted + rnd.pending == total
        checked += 1

    # Optimistic Borda dominates pessimistic, per candidate.
    rng = random.Random(4)
    for _ in range(200):
        profile = make_random_profile(rng)
        n = len(profile.roster.candidates)
        om = _borda_scores(profile, BordaModel.OPTIMISTIC, n)
        pm = _borda_scores(profile, BordaModel.PESSIMISTIC, n)
        assert all(om[c] >= pm[c] for c in om)

    # Oracle equivalence on at least 50 random in-bounds profiles, under both
    # tie policies and with write-ins (3 candidates + W stays within OracleBounds).
    rng = random.Random(515)
    compared = 0
    while compared < 50:
        profile = make_random_profile(rng, max_candidates=3, max_count=6, writein_rate=0.5)
        options = RcvOptions(
            tie_policy=rng.choice(list(TiePolicy)), buggy_first_round=rng.random() < 0.5
        )
        try:
            rcv_tabulate(profile, options)
        except (TieError, ValidationError):
            continue
        oracle = brute_force_oracle(profile, options)
        losers = len(profile.roster.candidates) - 1
        assert oracle.spoilers == find_spoilers(profile, options, max_subset_size=losers)
        assert oracle.downward == search_monotonicity(profile, options, Direction.DOWNWARD)
        assert oracle.upward == search_monotonicity(profile, options, Direction.UPWARD)
        assert oracle.noshow == search_noshow(profile, options)
        assert oracle.compromise == search_compromise(profile, options)
        compared += 1
    report("criterion 8: property suite (idempotence, conservation, dominance, oracle)")


def _borda_scores(profile, model, n):
    ids = profile.roster.ids()
    scores = {c: 0 for c in ids}
    for (ranking, _), count in profile.entries.items():
        for i, c in enumerate(ranking):
            scores[c] += (n - 1 - i) * count
        if model is BordaModel.OPTIMISTIC:
            pts = max(n - len(ranking) - 1, 0)
            for c in ids:
                if c not in ranking:
                    scores[c] += pts * count
    return scores


def test_criterion_9_documented_discrepancy(table1, capsys):
    scan = search_monotonicity(table1, OPTS, Direction.DOWNWARD)
    witness = next(w for w in scan.witnesses if w.ballot_type == ("R", "M", "H"))
    assert witness.max_count == 299

    from rcv_forensics.cli import main

    code = main(
        ["audit", "--fixture", "oakland-table1", "--checks", "monotonicity",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    (entry,) = doc["discrepancies"]
    assert entry["published"] == 598
    assert entry["computed"] == 299
    assert entry["status"] == "unresolved discrepancy"
    report("criterion 9: published 598 vs computed 299, flagged unresolved")
