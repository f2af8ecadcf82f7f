import dataclasses
import random
import types

import pytest

from rcv_forensics import (
    Candidate,
    CandidateRoster,
    CompromiseWitness,
    Direction,
    MonotonicityWitness,
    NoShowWitness,
    OracleBoundsError,
    RcvOptions,
    SpoilerWitness,
    TieError,
    ValidationError,
    brute_force_oracle,
    find_spoilers,
    prefers,
    rcv_tabulate,
    search_compromise,
    search_monotonicity,
    search_noshow,
    verify_witness,
)
from rcv_forensics.profiles import PreferenceProfile

from conftest import make_random_profile

OPTS = RcvOptions()
BUGGY = RcvOptions(buggy_first_round=True)


class TestSpoilers:
    def test_table1_resnick_spoils(self, table1):
        scan = find_spoilers(table1, OPTS, max_subset_size=1)
        assert scan.witnesses == (SpoilerWitness(("R",), "H", "M"),)
        assert scan.tie_subsets == ()

    def test_subsets_up_to_size_two(self, table1):
        scan = find_spoilers(table1, OPTS, max_subset_size=2)
        assert scan.witnesses == (SpoilerWitness(("R",), "H", "M"),)

    def test_two_candidate_profile_has_none(self):
        roster = CandidateRoster(tuple(Candidate(c, c) for c in "AB"))
        profile = PreferenceProfile.from_counts(roster, {("A", "B"): 3, ("B",): 2})
        assert find_spoilers(profile, OPTS, 1).witnesses == ()

    def test_strong_condorcet_winner_never_spoiled(self):
        roster = CandidateRoster(tuple(Candidate(c, c) for c in "ABC"))
        profile = PreferenceProfile.from_counts(
            roster, {("A", "B", "C"): 6, ("B", "A"): 2, ("C", "A"): 1}
        )
        report = brute_force_oracle(profile, OPTS)
        assert report.spoilers.witnesses == ()


class TestMonotonicityTable1:
    def test_downward_witnesses(self, table1):
        scan = search_monotonicity(table1, OPTS, Direction.DOWNWARD)
        assert scan.witnesses == (
            MonotonicityWitness(
                Direction.DOWNWARD, "R", ("R", "M"), False, ("M", "R"), 38, 299, "H", "R"
            ),
            MonotonicityWitness(
                Direction.DOWNWARD, "R", ("R", "M", "H"), False, ("M", "R", "H"), 38, 299, "H", "R"
            ),
        )
        boundary_keys = {(b.ballot_type, b.count, b.tied) for b in scan.boundaries}
        assert (("R", "M", "H"), 37, ("H", "M")) in boundary_keys
        assert (("R", "M", "H"), 1788, ("H", "R")) in boundary_keys

    def test_upward_witness(self, table1):
        scan = search_monotonicity(table1, OPTS, Direction.UPWARD)
        assert scan.witnesses == (
            MonotonicityWitness(
                Direction.UPWARD, "H", ("R", "H", "M"), False, ("H", "R", "M"), 1826, 2171, "H", "M"
            ),
        )
        assert scan.boundaries[0].count == 1825

    def test_minimality_is_locally_tight(self, table1):
        # t = min_count - 1 must not produce the paradox.
        down = search_monotonicity(table1, OPTS, Direction.DOWNWARD).witnesses[1]
        with pytest.raises(TieError):
            rcv_tabulate(
                table1.replace_ballots(down.ballot_type, down.modified_type, 37), OPTS
            )
        up = search_monotonicity(table1, OPTS, Direction.UPWARD).witnesses[0]
        with pytest.raises(TieError):
            rcv_tabulate(
                table1.replace_ballots(up.ballot_type, up.modified_type, 1825), OPTS
            )


class TestBuggyModeSearches:
    def test_upward_witness_at_42(self, synthetic_profile):
        scan = search_monotonicity(synthetic_profile, BUGGY, Direction.UPWARD)
        by_type = {w.ballot_type: w for w in scan.witnesses}
        witness = by_type[("M", "R", "H")]
        assert witness.focal_candidate == "R"
        assert witness.modified_type == ("R", "M", "H")
        assert witness.min_count == 42
        assert witness.new_winner == "H"

    def test_no_downward_paradox(self, synthetic_profile):
        scan = search_monotonicity(synthetic_profile, BUGGY, Direction.DOWNWARD)
        assert scan.witnesses == ()

    def test_noshow_witness_at_42(self, synthetic_profile):
        scan = search_noshow(synthetic_profile, BUGGY)
        assert (
            NoShowWitness(("M", "H", "R"), False, 42, "R", "H") in scan.witnesses
        )
        assert all(w.count == 42 for w in scan.witnesses)

    def test_correct_mode_has_no_noshow(self, table1):
        assert search_noshow(table1, OPTS).witnesses == ()


class TestCompromiseTable1:
    def test_all_witnesses(self, table1):
        scan = search_compromise(table1, OPTS)
        assert scan.witnesses == (
            CompromiseWitness(("R", "H", "M"), False, "M", 38, 299, "H", "R"),
            CompromiseWitness(("R", "M"), False, "M", 38, 299, "H", "R"),
            CompromiseWitness(("R", "M"), False, "M", 300, 934, "H", "M"),
            CompromiseWitness(("R", "M", "H"), False, "M", 38, 299, "H", "R"),
            CompromiseWitness(("R", "M", "H"), False, "M", 300, 1787, "H", "M"),
            CompromiseWitness(("R", "M", "H"), False, "M", 1789, 2246, "H", "M"),
        )

    def test_published_instance_in_range(self, table1):
        scan = search_compromise(table1, OPTS)
        family = [
            w
            for w in scan.witnesses
            if w.ballot_type == ("R", "M", "H")
            and w.promoted_candidate == "M"
            and w.new_winner == "M"
            and w.count <= 1800 <= w.max_count
        ]
        assert len(family) == 1
        edited = table1.replace_ballots(("R", "M", "H"), ("M", "R", "H"), 1800)
        result = rcv_tabulate(edited, OPTS)
        assert result.winner == "M"
        assert result.rounds[-1].tallies == {"H": 11322, "M": 11370}

    def test_unanimous_first_choice_has_none(self):
        roster = CandidateRoster(tuple(Candidate(c, c) for c in "ABC"))
        profile = PreferenceProfile.from_counts(roster, {("A", "B", "C"): 4, ("A", "C", "B"): 3})
        assert search_compromise(profile, OPTS).witnesses == ()


DOWN_R_40 = MonotonicityWitness(
    Direction.DOWNWARD, "R", ("R", "M", "H"), False, ("M", "R", "H"), 40, 40, "H", "R"
)


class TestVerifyWitness:
    def test_downward_instance_t40_true(self, table1):
        witness = MonotonicityWitness(
            Direction.DOWNWARD, "R", ("R", "M", "H"), False, ("M", "R", "H"), 40, 40, "H", "R"
        )
        assert verify_witness(table1, witness, OPTS)

    def test_downward_instance_t37_false(self, table1):
        witness = MonotonicityWitness(
            Direction.DOWNWARD, "R", ("R", "M", "H"), False, ("M", "R", "H"), 37, 37, "H", "R"
        )
        assert not verify_witness(table1, witness, OPTS)

    def test_zero_count_claim_false(self, table1):
        witness = NoShowWitness(("M", "H", "R"), False, 0, "H", "M")
        assert not verify_witness(table1, witness, OPTS)

    def test_upward_instance_t2000_true(self, table1):
        witness = MonotonicityWitness(
            Direction.UPWARD, "H", ("R", "H", "M"), False, ("H", "R", "M"), 2000, 2000, "H", "M"
        )
        assert verify_witness(table1, witness, OPTS)

    def test_compromise_published_instance_true(self, table1):
        witness = CompromiseWitness(("R", "M", "H"), False, "M", 1800, 1800, "H", "M")
        assert verify_witness(table1, witness, OPTS)

    def test_buggy_noshow_true(self, synthetic_profile):
        witness = NoShowWitness(("M", "H", "R"), False, 42, "R", "H")
        assert verify_witness(synthetic_profile, witness, BUGGY)

    def test_spoiler_true(self, table1):
        assert verify_witness(table1, SpoilerWitness(("R",), "H", "M"), OPTS)

    def test_spoiler_removing_winner_false(self, table1):
        assert not verify_witness(table1, SpoilerWitness(("H",), "H", "M"), OPTS)

    def test_malformed_witness_raises(self, table1):
        with pytest.raises(ValidationError):
            verify_witness(table1, SpoilerWitness(("X",), "H", "M"), OPTS)
        with pytest.raises(ValidationError):
            verify_witness(
                table1,
                CompromiseWitness(("R", "M", "H"), False, "R", 10, 10, "H", "M"),
                OPTS,
            )

    @pytest.mark.parametrize(
        "witness",
        [
            # the published downward range ends at 598; the computed one at 299
            dataclasses.replace(DOWN_R_40, min_count=38, max_count=598),
            dataclasses.replace(DOWN_R_40, min_count=38, max_count=300),
            dataclasses.replace(DOWN_R_40, focal_candidate="M"),
            dataclasses.replace(DOWN_R_40, min_count=41),
            CompromiseWitness(("R", "M", "H"), False, "M", 1801, 1800, "H", "M"),
            # removing 500 H-only ballots does elect R, whom those ballots leave unranked
            NoShowWitness(("H",), False, 500, "H", "R"),
            dataclasses.replace(DOWN_R_40, original_winner="M"),
            # the claimed edit is not the one-place shift of the focal candidate
            dataclasses.replace(DOWN_R_40, modified_type=("M", "H", "R")),
            MonotonicityWitness(
                Direction.UPWARD, "H", ("R", "H", "M"), False, ("M", "R", "H"),
                2000, 2000, "H", "M",
            ),
            dataclasses.replace(DOWN_R_40, ballot_type=("M", "H"), modified_type=("H", "M")),
            dataclasses.replace(
                DOWN_R_40, ballot_type=("M", "H", "R"), modified_type=("M", "R", "H")
            ),
        ],
        ids=[
            "published-max-598", "max-past-computed-299", "focal-not-new-winner",
            "min-above-max", "compromise-count-above-max", "noshow-not-preferred",
            "wrong-original-winner", "down-moved-two-places", "up-moved-down",
            "focal-unranked", "focal-already-last",
        ],
    )
    def test_wrong_witness_false(self, table1, witness):
        assert not verify_witness(table1, witness, OPTS)

    def test_unknown_witness_type_raises(self, table1):
        with pytest.raises(ValidationError, match="unknown witness type"):
            verify_witness(table1, ("R", "M", "H"), OPTS)

    def test_all_search_witnesses_verify(self, table1, synthetic_profile):
        for profile, options in ((table1, OPTS), (synthetic_profile, BUGGY)):
            for direction in Direction:
                for witness in search_monotonicity(profile, options, direction).witnesses:
                    assert verify_witness(profile, witness, options)
            for witness in search_noshow(profile, options).witnesses:
                assert verify_witness(profile, witness, options)
            for witness in find_spoilers(profile, options, 1).witnesses:
                assert verify_witness(profile, witness, options)
        for witness in search_compromise(table1, OPTS).witnesses:
            assert verify_witness(table1, witness, OPTS)


class TestOracle:
    def test_bounds_refusal(self, table1):
        with pytest.raises(OracleBoundsError):
            brute_force_oracle(table1, OPTS)

    def test_oracle_shares_no_scan_code(self):
        """The oracle checks the searches, so it must not call their code."""
        names = set()
        codes = [brute_force_oracle.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        shared = {"_scan", "_shift", "_promote", "_entries_of", "rcv_winner", "verify_witness"}
        assert names & shared == set()
        assert "rcv_tabulate" in names

    def test_toy_profile_oracle_equals_searches(self, toy_cycle_profile):
        profile = toy_cycle_profile
        report = brute_force_oracle(profile, OPTS)
        losers = len(profile.roster.candidates) - 1
        assert report.spoilers == find_spoilers(profile, OPTS, max_subset_size=losers)
        assert report.downward == search_monotonicity(profile, OPTS, Direction.DOWNWARD)
        assert report.upward == search_monotonicity(profile, OPTS, Direction.UPWARD)
        assert report.noshow == search_noshow(profile, OPTS)
        assert report.compromise == search_compromise(profile, OPTS)

    def test_toy_profile_has_cycle_and_spoiler(self, toy_cycle_profile):
        report = brute_force_oracle(toy_cycle_profile, OPTS)
        assert report.spoilers.witnesses == (SpoilerWitness(("C",), "A", "B"),)

    def test_unanimous_profile_all_empty(self):
        roster = CandidateRoster(tuple(Candidate(c, c) for c in "AB"))
        profile = PreferenceProfile.from_counts(roster, {("A", "B"): 5})
        report = brute_force_oracle(profile, OPTS)
        assert report.spoilers.witnesses == ()
        assert report.downward.witnesses == ()
        assert report.upward.witnesses == ()
        assert report.noshow.witnesses == ()
        assert report.compromise.witnesses == ()


class TestDeterminism:
    def test_searches_repeatable(self, table1):
        first = search_monotonicity(table1, OPTS, Direction.DOWNWARD)
        second = search_monotonicity(table1, OPTS, Direction.DOWNWARD)
        assert first == second


class TestPrefers:
    def test_ranked_order(self):
        assert prefers(("R", "M", "H"), "R", "H")
        assert not prefers(("R", "M", "H"), "H", "R")

    def test_unranked_below_ranked(self):
        assert prefers(("M",), "M", "H")
        assert not prefers(("M",), "H", "M")

    def test_both_unranked_tied(self):
        assert not prefers(("M",), "H", "R")


def test_downward_focal_never_original_winner(table1):
    for witness in search_monotonicity(table1, OPTS, Direction.DOWNWARD).witnesses:
        assert witness.focal_candidate != witness.original_winner
        assert witness.new_winner == witness.focal_candidate


def test_random_profiles_witnesses_verify():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        profile = make_random_profile(rng, max_count=6)
        options = RcvOptions(buggy_first_round=rng.random() < 0.5)
        try:
            rcv_tabulate(profile, options)
        except (TieError, ValidationError):
            continue
        checked += 1
        for direction in Direction:
            for witness in search_monotonicity(profile, options, direction).witnesses:
                assert verify_witness(profile, witness, options)
        for witness in search_noshow(profile, options).witnesses:
            assert verify_witness(profile, witness, options)
        for witness in search_compromise(profile, options).witnesses:
            assert verify_witness(profile, witness, options)
