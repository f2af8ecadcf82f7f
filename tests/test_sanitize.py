from hypothesis import given, strategies as st

from rcv_forensics import (
    ALAMEDA,
    ALASKA,
    MINNEAPOLIS,
    Candidate,
    CandidateRoster,
    OvervotePolicy,
    RawBallot,
    SanitizePolicy,
    SkipPolicy,
    fixture_roster,
    load_builtin_fixture,
    sanitize_all,
    sanitize_ballot,
)

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
