import json
import random

import pytest
from hypothesis import given, strategies as st

from rcv_forensics import Candidate, CandidateRoster, ParseError, ValidationError, rcv_tabulate
from rcv_forensics.profiles import PreferenceProfile

from conftest import make_random_profile

ABC = CandidateRoster(tuple(Candidate(c, c) for c in "ABC"))


class TestTotals:
    def test_empty_profile(self):
        assert PreferenceProfile(ABC, {}).total() == 0

    def test_table1_total(self, table1):
        assert table1.total() == 26432

    def test_synthetic_total(self, synthetic_profile):
        assert synthetic_profile.total() == 26569


class TestFirstPlaceTally:
    def test_table1(self, table1):
        assert table1.first_place_tally() == {"H": 8227, "M": 8190, "R": 10015}

    def test_synthetic_with_writeins(self, synthetic_profile):
        tally = synthetic_profile.first_place_tally()
        assert tally == {"H": 8147, "M": 8176, "R": 9977, "WI1": 269, "WI2": 0}

    def test_single_ballot(self):
        profile = PreferenceProfile.from_counts(ABC, {("A", "B"): 1})
        assert profile.first_place_tally() == {"A": 1, "B": 0, "C": 0}

    def test_empty_rankings_excluded(self):
        profile = PreferenceProfile.from_counts(ABC, {(): 5, ("A",): 1})
        assert profile.first_place_tally() == {"A": 1, "B": 0, "C": 0}


class TestPairwise:
    def test_table1_cells(self, table1):
        n = table1.pairwise_matrix().n
        assert n("M", "H") == 11370 and n("H", "M") == 11322
        assert n("R", "M") == 12352 and n("M", "R") == 11753
        assert n("H", "R") == 12421 and n("R", "H") == 12165

    def test_unranked_below_ranked(self):
        profile = PreferenceProfile.from_counts(ABC, {("A", "B"): 1})
        n = profile.pairwise_matrix().n
        assert n("A", "B") == n("A", "C") == n("B", "C") == 1
        assert n("B", "A") == n("C", "A") == n("C", "B") == 0

    def test_consistency_with_total(self, table1):
        # n(x,y) + n(y,x) + (ballots ranking neither) = total
        matrix = table1.pairwise_matrix()
        total = table1.total()
        for x, y in [("H", "M"), ("H", "R"), ("M", "R")]:
            neither = sum(
                count
                for (ranking, _), count in table1.entries.items()
                if x not in ranking and y not in ranking
            )
            assert matrix.n(x, y) + matrix.n(y, x) + neither == total


class TestRemoveCandidates:
    def test_remove_nothing_is_identity(self, table1):
        assert table1.remove_candidates(()) == table1

    def test_remove_resnick(self, table1):
        reduced = table1.remove_candidates({"R"})
        assert reduced.total() == 26432
        assert reduced.first_place_tally() == {"H": 11322, "M": 11370}

    def test_remove_writeins_from_synthetic(self, synthetic_profile):
        reduced = synthetic_profile.remove_candidates({"WI1", "WI2"})
        assert reduced.first_place_tally() == {"H": 8227, "M": 8190, "R": 10015}

    def test_remove_all_gives_empty_rankings(self, table1):
        reduced = table1.remove_candidates({"H", "M", "R"})
        assert reduced.total() == 26432
        assert set(reduced.entries) == {((), False)}

    def test_removals_commute(self):
        rng = random.Random(7)
        for _ in range(20):
            profile = make_random_profile(rng)
            ids = profile.roster.ids()
            if len(ids) < 3:
                continue
            a, b = ids[0], ids[1]
            one_then_other = profile.remove_candidates({a}).remove_candidates({b})
            both = profile.remove_candidates({a, b})
            assert one_then_other == both

    def test_unknown_candidate_rejected(self, table1):
        with pytest.raises(ValidationError):
            table1.remove_candidates({"X"})


class TestShiftCandidate:
    def test_shift_down(self, table1):
        shifted = table1.shift_candidate(("R", "M", "H"), "R", "down", 40)
        assert shifted.count(("R", "M", "H")) == 2206
        assert shifted.count(("M", "R", "H")) == 1461
        assert shifted.total() == table1.total()

    def test_shift_up(self, table1):
        shifted = table1.shift_candidate(("R", "H", "M"), "H", "up", 2000)
        assert shifted.count(("H", "R", "M")) == 1807 + 2000
        assert shifted.count(("R", "H", "M")) == 171

    def test_shift_zero_is_identity(self, table1):
        assert table1.shift_candidate(("R", "M", "H"), "R", "down", 0) == table1

    def test_boundary_positions_rejected(self, table1):
        with pytest.raises(ValidationError):
            table1.shift_candidate(("R", "M", "H"), "R", "up", 1)
        with pytest.raises(ValidationError):
            table1.shift_candidate(("R", "M", "H"), "H", "down", 1)

    def test_insufficient_ballots_rejected(self, table1):
        with pytest.raises(ValidationError):
            table1.shift_candidate(("R", "M", "H"), "R", "down", 2247)

    def test_down_then_up_restores(self, table1):
        down = table1.shift_candidate(("R", "M", "H"), "R", "down", 40)
        restored = down.shift_candidate(("M", "R", "H"), "R", "up", 40)
        assert restored == table1


class TestReplaceRemoveBallots:
    def test_replace(self, table1):
        moved = table1.replace_ballots(("R", "M", "H"), ("M", "R", "H"), 1800)
        assert moved.count(("M", "R", "H")) == 3221
        assert moved.total() == table1.total()

    def test_replace_zero_identity(self, table1):
        assert table1.replace_ballots(("R", "M", "H"), ("M", "R", "H"), 0) == table1

    def test_remove(self, synthetic_profile):
        fewer = synthetic_profile.remove_ballots(("M", "H", "R"), 42)
        assert fewer.total() == 26527

    def test_remove_entire_type(self, table1):
        gone = table1.remove_ballots(("R", "M"), 934)
        assert gone.count(("R", "M")) == 0
        assert (("R", "M"), False) not in gone.entries

    def test_remove_too_many_rejected(self, table1):
        with pytest.raises(ValidationError):
            table1.remove_ballots(("R", "M"), 935)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda p: p.replace_ballots(("R", "M", "H"), ("M", "R", "H"), -1),
                "count must be non-negative",
            ),
            (lambda p: p.remove_ballots(("R", "M"), -1), "count must be non-negative"),
            (
                lambda p: p.replace_ballots(("R", "M", "H"), ("M", "R", "H"), 2247),
                "only 2246 ballots of type ('R', 'M', 'H') available, cannot move 2247",
            ),
            (
                lambda p: p.remove_ballots(("R", "M"), 935),
                "only 934 ballots of type ('R', 'M') available, cannot remove 935",
            ),
        ],
        ids=["replace-negative", "remove-negative", "replace-too-many", "remove-too-many"],
    )
    def test_count_error_messages(self, table1, edit, message):
        with pytest.raises(ValidationError) as info:
            edit(table1)
        assert str(info.value) == message

    def test_flag_buckets_are_distinct(self, synthetic_profile):
        assert synthetic_profile.count(("M",), raw_first_invalid=True) == 23
        assert synthetic_profile.count(("M",), raw_first_invalid=False) == 1809
        moved = synthetic_profile.remove_ballots(("M",), 23, raw_first_invalid=True)
        assert moved.count(("M",), raw_first_invalid=False) == 1809


class TestEqualityAndValidation:
    def test_equality_ignores_insertion_order(self):
        a = PreferenceProfile(ABC, {(("A", "B"), False): 2, (("B",), False): 1})
        b = PreferenceProfile(ABC, {(("B",), False): 1, (("A", "B"), False): 2})
        assert a == b

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValidationError):
            PreferenceProfile(ABC, {(("A",), False): 0})

    def test_duplicate_in_ranking_rejected(self):
        with pytest.raises(ValidationError):
            PreferenceProfile(ABC, {(("A", "A"), False): 1})

    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValidationError):
            PreferenceProfile(ABC, {(("Z",), False): 1})


class TestSerialization:
    def test_round_trip(self, synthetic_profile):
        doc = synthetic_profile.to_json_dict()
        text = json.dumps(doc, sort_keys=True)
        assert PreferenceProfile.from_json_dict(json.loads(text)) == synthetic_profile

    def test_deterministic_output(self, table1):
        a = json.dumps(table1.to_json_dict(), sort_keys=True)
        b = json.dumps(table1.to_json_dict(), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["roster"]["candidates"][0].pop("name"), ParseError),
            (lambda d: d["roster"]["candidates"][0].update(writein="false"), ParseError),
            (
                lambda d: [c.update(writein=True) for c in d["roster"]["candidates"]],
                ValidationError,
            ),
            (lambda d: d["entries"][0].update(raw_first_invalid=0), ParseError),
        ],
        ids=["missing-name", "writein-string", "all-writein", "flag-not-boolean"],
    )
    def test_malformed_document_rejected(self, table1, edit, error):
        """from_json_dict decodes the roster exactly as a roster file is read."""
        doc = table1.to_json_dict()
        edit(doc)
        with pytest.raises(error):
            PreferenceProfile.from_json_dict(doc)


@given(st.data())
def test_edit_conservation_random(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    profile = make_random_profile(rng)
    total = profile.total()
    keys = sorted(profile.entries)
    ranking, flag = keys[rng.randrange(len(keys))]
    count = profile.entries[(ranking, flag)]
    t = rng.randint(0, count)
    if len(ranking) >= 2:
        moved = profile.replace_ballots(ranking, tuple(reversed(ranking)), t, flag)
        assert moved.total() == total
    removed = profile.remove_ballots(ranking, t, flag)
    assert removed.total() == total - t


def test_rcv_invariant_under_reaggregation(table1):
    shuffled_items = list(table1.entries.items())
    random.Random(3).shuffle(shuffled_items)
    rebuilt = PreferenceProfile(table1.roster, dict(shuffled_items))
    assert rcv_tabulate(rebuilt) == rcv_tabulate(table1)
