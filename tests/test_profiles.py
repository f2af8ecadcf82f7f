import json
import random

import pytest
from hypothesis import given, strategies as st

from rcv_forensics import Candidate, CandidateRoster, ParseError, ValidationError, rcv_tabulate
from rcv_forensics.forensics import prefers
from rcv_forensics.profiles import PreferenceProfile

from conftest import make_random_profile

ABC = CandidateRoster(tuple(Candidate(c, c) for c in "ABC"))
ZAA, ZAZ, AYA = ("Z", "A", "A"), ("Z", "A", "Z"), ("A", "Y", "A")


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
        rows = table1.pairwise_matrix()
        assert rows["M"]["H"] == 11370 and rows["H"]["M"] == 11322
        assert rows["R"]["M"] == 12352 and rows["M"]["R"] == 11753
        assert rows["H"]["R"] == 12421 and rows["R"]["H"] == 12165

    def test_unranked_below_ranked(self):
        profile = PreferenceProfile.from_counts(ABC, {("A", "B"): 1})
        rows = profile.pairwise_matrix()
        assert rows["A"]["B"] == rows["A"]["C"] == rows["B"]["C"] == 1
        assert rows["B"]["A"] == rows["C"]["A"] == rows["C"]["B"] == 0

    def test_consistency_with_total(self, table1):
        # n(x,y) + n(y,x) + (ballots ranking neither) = total
        rows = table1.pairwise_matrix()
        total = table1.total()
        for x, y in [("H", "M"), ("H", "R"), ("M", "R")]:
            neither = sum(
                count
                for (ranking, _), count in table1.entries.items()
                if x not in ranking and y not in ranking
            )
            assert rows[x][y] + rows[y][x] + neither == total

    def test_matches_definition_on_random_profiles(self):
        """n(x, y) is the summed count of the types that rank x over y, on
        random profiles with partial rankings, write-ins and flags, from 2 to
        40 candidates (see ``pairwise_profiles``). Each row holds the roster
        less its own candidate, in roster order, which is the order the text
        report prints; half the small rosters are reversed and the long ones
        shuffled, so an order that is only sorted shows."""
        for profile in pairwise_profiles():
            ids = profile.roster.ids()
            rows = profile.pairwise_matrix()
            assert tuple(rows) == ids
            for x in ids:
                assert list(rows[x]) == [y for y in ids if y != x]
                for y in rows[x]:
                    assert rows[x][y] == sum(
                        count
                        for (ranking, _), count in profile.entries.items()
                        if prefers(ranking, x, y)
                    )


def pairwise_profiles():
    """300 profiles of 2 to 5 candidates; 40 of 8 to 40 candidates ranking at
    most three each, where most pairs set a ranked candidate over an unranked
    one, and 40 ranking up to the whole roster; and the three-ballot cycle
    of ``tests/test_cli.py::test_long_majority_cycle_exits_cleanly`` (the
    order c0 > c1 > ..., turned right by one and left by one) at 3, 8 and
    40 candidates."""
    rng = random.Random(23)
    for trial in range(300):
        profile = make_random_profile(rng, max_candidates=4, writein_rate=0.3)
        if trial % 2:
            reversed_roster = CandidateRoster(tuple(reversed(profile.roster.candidates)))
            profile = PreferenceProfile(reversed_roster, profile.entries)
        yield profile
    for max_rank in (3, None):
        for _ in range(40):
            ids = [f"c{i}" for i in range(rng.randint(8, 40))]
            rng.shuffle(ids)
            entries = {}
            for _ in range(rng.randint(1, 12)):
                ranking = tuple(rng.sample(ids, rng.randint(0, max_rank or len(ids))))
                entries[(ranking, rng.random() < 0.25)] = rng.randint(1, 8)
            yield PreferenceProfile(CandidateRoster(tuple(Candidate(c, c) for c in ids)), entries)
    for n in (3, 8, 40):
        ids = [f"c{i}" for i in range(n)]
        orders = (ids, ids[-1:] + ids[:-1], ids[1:] + ids[:1])
        roster = CandidateRoster(tuple(Candidate(c, c) for c in ids))
        yield PreferenceProfile(roster, {(tuple(order), False): 1 for order in orders})


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

    def test_type_not_in_profile_has_no_ballots(self, table1):
        """A type the profile lacks (Table 1 has no flagged ballots) has no
        ballots to move or remove."""
        with pytest.raises(ValidationError, match="only 0 ballots"):
            table1.remove_ballots(("R", "M"), 1, raw_first_invalid=True)
        with pytest.raises(ValidationError, match="only 0 ballots"):
            table1.replace_ballots(("R", "M"), ("M", "R"), 1, raw_first_invalid=True)

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

    @pytest.mark.parametrize(
        "entries, message",
        [
            # a bad count is named first, even on a ranking that repeats and names unknowns
            ({(("Z", "A", "A"), False): 0}, f"entry count for {ZAA} must be a positive integer"),
            ({(("Z", "A", "A"), False): -2}, f"entry count for {ZAA} must be a positive integer"),
            ({(("Z", "A", "A"), False): 1.0}, f"entry count for {ZAA} must be a positive integer"),
            # a repeat is named before an unknown id
            ({(("Z", "A", "Z"), False): 1}, f"ranking {ZAZ} contains a duplicate candidate"),
            ({(("A", "Y", "A"), True): 3}, f"ranking {AYA} contains a duplicate candidate"),
            # of several unknown ids, the first in ranking order is named
            ({(("A", "Y", "X"), False): 1}, "ranking references unknown candidate 'Y'"),
            (
                {(("B",) + tuple(f"u{i}" for i in range(20, 0, -1)), False): 1},
                "ranking references unknown candidate 'u20'",
            ),
            # entries are checked one at a time, in order
            ({(("Z",), False): 1, (("A",), False): 0}, "ranking references unknown candidate 'Z'"),
            (
                {(("A",), False): 1, (("B", "B"), False): 0},
                "entry count for ('B', 'B') must be a positive integer",
            ),
        ],
    )
    def test_error_order(self, entries, message):
        """Each entry's checks run in a fixed order (count, then repeats,
        then roster membership), and the error names what it refuses."""
        with pytest.raises(ValidationError) as info:
            PreferenceProfile(ABC, entries)
        assert str(info.value) == message


class TestSerialization:
    def test_round_trip(self, synthetic_profile):
        doc = synthetic_profile.to_json_dict()
        text = json.dumps(doc, sort_keys=True)
        assert PreferenceProfile.from_json_dict(json.loads(text)) == synthetic_profile

    def test_schema_version(self, table1):
        assert table1.to_json_dict()["schema_version"] == 1

    def test_deterministic_output(self, table1):
        a = json.dumps(table1.to_json_dict(), sort_keys=True)
        b = json.dumps(table1.to_json_dict(), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            (lambda d: d["roster"]["candidates"][0].pop("name"), ParseError, "candidate #1"),
            (lambda d: d["roster"]["candidates"][1].update(id=None), ParseError, "candidate #2: id"),
            (lambda d: d["roster"]["candidates"][0].update(name=2), ParseError, "name must be"),
            (
                lambda d: d["roster"]["candidates"][0].update(writein="false"),
                ParseError,
                "writein",
            ),
            (
                lambda d: [c.update(writein=True) for c in d["roster"]["candidates"]],
                ValidationError,
                "official",
            ),
            (lambda d: d["entries"][0].update(raw_first_invalid=0), ParseError, "entry #1"),
            (lambda d: d.pop("entries"), ParseError, "'entries' array"),
            (lambda d: d.update(entries={"ranking": ["H"], "count": 1}), ParseError, "'entries'"),
            (lambda d: d["entries"][1].pop("ranking"), ParseError, "entry #2"),
            (lambda d: d["entries"][1].update(ranking="HM"), ParseError, "entry #2"),
            (lambda d: d["entries"][1].pop("count"), ParseError, "entry #2"),
            (lambda d: d["entries"][1].update(count="x"), ParseError, "entry #2"),
            (lambda d: d["entries"][1].update(count=1.5), ParseError, "entry #2"),
            (lambda d: d["entries"][1].update(count=True), ParseError, "entry #2"),
            (lambda d: d["entries"].__setitem__(1, ["H"]), ParseError, "entry #2"),
            (
                lambda d: d["entries"].insert(1, {**d["entries"][0], "count": 7}),
                ParseError,
                r"entry #2: repeats entry #1 \(same ranking and raw_first_invalid\)",
            ),
            *(
                (
                    lambda d, bad=bad: d["entries"][1].update(ranking=["H", bad]),
                    ParseError,
                    "^profile entry #2: ranking must hold candidate ids$",
                )
                for bad in (["H"], 1, None)
            ),
        ],
        ids=[
            "missing-name", "id-null", "name-int", "writein-string", "all-writein", "flag-not-boolean",
            "no-entries", "entries-not-list", "no-ranking", "ranking-string", "no-count",
            "count-string", "count-float", "count-bool", "entry-not-object", "repeated-entry",
            "ranking-holds-list", "ranking-holds-int", "ranking-holds-null",
        ],
    )
    def test_malformed_document_rejected(self, table1, edit, error, message):
        """from_json_dict decodes the roster exactly as a roster file is read,
        and a malformed entry is a ParseError naming it, never a KeyError or
        a silently coerced value."""
        doc = table1.to_json_dict()
        edit(doc)
        with pytest.raises(error, match=message):
            PreferenceProfile.from_json_dict(doc)

    def test_non_object_document_rejected(self):
        with pytest.raises(ParseError, match="'entries' array"):
            PreferenceProfile.from_json_dict([])


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


def reference_move(profile, src, count, dst):
    """An edit as the public constructor makes it: the moved counts, then
    every entry checked and normalized again. It is the only copy and exists
    to check ``PreferenceProfile._move``, which checks only dst."""
    if count < 0:
        raise ValidationError("count must be non-negative")
    if count == 0 or src == dst:
        return profile
    available = profile.entries.get(src, 0)
    if count > available:
        raise ValidationError(
            f"only {available} ballots of type {src[0]} available, "
            f"cannot {'remove' if dst is None else 'move'} {count}"
        )
    entries = dict(profile.entries)
    entries[src] = available - count
    if entries[src] == 0:
        del entries[src]
    if dst is not None:
        entries[dst] = entries.get(dst, 0) + count
    return PreferenceProfile(profile.roster, entries)


def edit_outcome(edit):
    """An edit's entries in order, with the types of each flag and count, or
    the text of the error it raises."""
    try:
        moved = edit()
    except ValidationError as exc:
        return str(exc)
    return [(r, f, type(f), n, type(n)) for (r, f), n in moved.entries.items()], moved.roster


@pytest.mark.parametrize("seed", range(4))
def test_edits_match_the_public_constructor(seed):
    """Both public edits give the entries (in order, with their types) or the
    error text that the public constructor gives on the edited entries: for
    int, float and bool counts, flags that are not bools, and destinations
    that are new, unknown, repeat a candidate or precede the source."""
    rng = random.Random(seed)
    for _ in range(500):
        profile = make_random_profile(rng, flag_rate=0.5)
        keys = list(profile.entries)
        ranking, flag = rng.choice(keys + [(("A", "B"), True)])
        to = rng.choice(
            [r for r, _ in keys]
            + [tuple(reversed(ranking)), (), ("A", "A"), ("Z",), tuple(rng.sample("ABC", 2))]
        )
        flag = rng.choice([flag, flag, int(flag), None, not flag])
        t = rng.randint(0, profile.entries.get((ranking, bool(flag)), 1) + 1)
        count = rng.choice([t, t, t, float(t), t + 0.5, True, -1])
        src = (ranking, flag)
        assert edit_outcome(lambda: profile.replace_ballots(ranking, to, count, flag)) == (
            edit_outcome(lambda: reference_move(profile, src, count, (to, flag)))
        )
        assert edit_outcome(lambda: profile.remove_ballots(ranking, count, flag)) == (
            edit_outcome(lambda: reference_move(profile, src, count, None))
        )
