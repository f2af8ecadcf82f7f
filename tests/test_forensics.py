import dataclasses
import gc
import inspect
import itertools
import json
import random
import types

import pytest

import rcv_forensics
from rcv_forensics import (
    ALAMEDA,
    Candidate,
    CandidateRoster,
    CompromiseWitness,
    Direction,
    MonotonicityWitness,
    NoShowWitness,
    OracleBounds,
    OracleBoundsError,
    RcvOptions,
    SpoilerWitness,
    TieError,
    TiePolicy,
    ValidationError,
    WriteinPolicy,
    brute_force_oracle,
    emit_cvr,
    find_spoilers,
    fixture_roster,
    prefers,
    rcv_tabulate,
    sanitize_all,
    search_compromise,
    search_monotonicity,
    search_noshow,
    verify_witness,
)
import rcv_forensics.forensics as forensics
from rcv_forensics.cli import main
from rcv_forensics.cvr import load_roster, parse_cvr, roster_to_json_dict
import rcv_forensics.methods as methods
import rcv_forensics.scan as scan_module
from rcv_forensics.forensics import _shift
from rcv_forensics.profiles import PreferenceProfile

from conftest import generated_cvr, make_random_profile
from test_pile_count import OPTIONS, multiround_profile

OPTS = RcvOptions()
BUGGY = RcvOptions(buggy_first_round=True)
LEX = RcvOptions(tie_policy=TiePolicy.ELIMINATE_LEX_SMALLEST)

# B and C tie at 4 in round 1, so under LEX one edited ballot decides which
# of them is eliminated; most edits create a ballot type the profile lacks.
ONE_BALLOT = PreferenceProfile.from_counts(
    CandidateRoster(tuple(Candidate(c, c) for c in "ABC")),
    {("A", "B", "C"): 5, ("B", "A", "C"): 4, ("C", "A", "B"): 1, ("C", "B", "A"): 3},
)


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


def reference_find_spoilers(profile, options, max_subset_size=1):
    """The spoiler search as a profile edit: each subset is struck from the
    roster and every ranking by ``remove_candidates``, and the reduced
    profile is tabulated in full."""
    base = rcv_tabulate(profile, options)
    original_winner = base.winner
    losers = [cid for cid in profile.roster.ids() if cid != original_winner]
    witnesses = []
    tie_subsets = []
    for size in range(1, min(max_subset_size, len(losers)) + 1):
        for subset in itertools.combinations(losers, size):
            reduced = profile.remove_candidates(subset)
            try:
                result = rcv_tabulate(reduced, options)
            except TieError:
                tie_subsets.append(subset)
                continue
            except ValidationError:
                continue  # nothing left to tabulate
            if result.winner != original_winner:
                witnesses.append(SpoilerWitness(subset, original_winner, result.winner))
    return forensics.SpoilerScan(tuple(witnesses), tuple(tie_subsets))


def spoiler_outcome(search, profile, options, size):
    """A search's SpoilerScan, or the type of the error it raised."""
    try:
        return search(profile, options, size)
    except (TieError, ValidationError) as exc:
        return type(exc)


def random_spoiler_case(rng):
    """A profile over 2-6 official candidates and 0-2 write-ins, of 1-12
    flagged or unflagged types that may be empty or rank only write-ins,
    with options covering both write-in and tie policies and buggy mode."""
    officials = list("ABCDEF"[: rng.randint(2, 6)])
    writeins = ["W", "X"][: rng.randint(0, 2)]
    roster = CandidateRoster(
        tuple(Candidate(c, c) for c in officials)
        + tuple(Candidate(c, c, is_writein=True) for c in writeins)
    )
    ids = officials + writeins
    entries = {}
    for _ in range(rng.randint(1, 12)):
        key = (tuple(rng.sample(ids, rng.randint(0, len(ids)))), rng.random() < 0.3)
        entries[key] = entries.get(key, 0) + rng.randint(1, 9)
    tie_policy = rng.choice(list(TiePolicy))
    if rng.random() < 0.4:
        options = RcvOptions(tie_policy=tie_policy, buggy_first_round=True)
    else:
        options = RcvOptions(rng.choice(list(WriteinPolicy)), tie_policy)
    return PreferenceProfile(roster, entries), options


@pytest.mark.parametrize("seed", range(4))
def test_spoilers_match_reference_on_random_profiles(seed):
    """Eliminating a subset before round 1 on shared piles gives what
    striking it from the profile and tabulating gives: the same witnesses
    and tie subsets, or the same error. The draws include searches that
    raise or find tied subsets, and subsets whose removal leaves every
    ranking empty."""
    rng = random.Random(seed)
    ties = emptied = 0
    for _ in range(250):
        profile, options = random_spoiler_case(rng)
        size = rng.randint(1, 3)
        expected = spoiler_outcome(reference_find_spoilers, profile, options, size)
        assert spoiler_outcome(find_spoilers, profile, options, size) == expected
        if expected is TieError or expected.tie_subsets:
            ties += 1
        elif expected is not ValidationError:
            ranked = {cid for ranking, _ in profile.entries for cid in ranking}
            winner = rcv_tabulate(profile, options).winner
            emptied += winner not in ranked and len(ranked) <= size
    assert ties and emptied


@pytest.mark.parametrize("size", [1, 2])
def test_spoilers_match_reference_at_full_size(size, table1, synthetic_profile):
    """Table 1, the synthetic fixture in buggy mode, whose losers include
    the write-ins its batch already walked out, and a profile of the
    generated multi-round benchmark's shape under both tie policies. Size 1
    is the search's default."""
    generated = multiround_profile(23)
    for profile, options in (
        (table1, OPTS), (synthetic_profile, BUGGY), (generated, OPTS), (generated, LEX),
    ):
        expected = reference_find_spoilers(profile, options, size)
        sized = (size,) if size > 1 else ()  # size 1 through the default
        assert find_spoilers(profile, options, *sized) == expected


def test_spoilers_count_on_shared_piles(table1, monkeypatch):
    """One spoiler search tabulates only the original profile and rebuilds
    no profile per subset."""
    tabulated, rebuilt = [], []
    tabulate, remove = forensics.rcv_tabulate, PreferenceProfile.remove_candidates
    monkeypatch.setattr(forensics, "rcv_tabulate", lambda *a: tabulated.append(1) or tabulate(*a))
    monkeypatch.setattr(
        PreferenceProfile, "remove_candidates", lambda *a: rebuilt.append(1) or remove(*a)
    )
    assert find_spoilers(table1, OPTS, 2).witnesses == (SpoilerWitness(("R",), "H", "M"),)
    assert (len(tabulated), len(rebuilt)) == (1, 0)


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

    @pytest.mark.parametrize(
        "witness",
        [
            MonotonicityWitness(
                Direction.UPWARD, "A", ("C", "A", "B"), False, ("A", "C", "B"), 1, 1, "A", "B"
            ),
            NoShowWitness(("C", "B", "A"), False, 1, "A", "B"),
            CompromiseWitness(("C", "B", "A"), False, "B", 1, 3, "A", "B"),
        ],
        ids=["upward", "noshow", "compromise"],
    )
    def test_one_ballot_witness_true(self, witness):
        assert verify_witness(ONE_BALLOT, witness, LEX)

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
        off_ballot = CompromiseWitness(("M", "H"), False, "R", 10, 10, "H", "M")
        message = "^promoted candidate is not ranked on the ballot type$"
        with pytest.raises(ValidationError, match=message):
            verify_witness(table1, off_ballot, OPTS)

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
            # removing the winner H does elect R, but that is no spoiler effect
            SpoilerWitness(("H",), "H", "R"),
            # no shift exists, so no modified type: the claim is not a removal
            MonotonicityWitness(Direction.UPWARD, "H", ("H",), False, None, 500, 500, "H", "R"),
            MonotonicityWitness(Direction.DOWNWARD, "R", ("H",), False, None, 500, 500, "H", "R"),
        ],
        ids=[
            "published-max-598", "max-past-computed-299", "focal-not-new-winner",
            "min-above-max", "compromise-count-above-max", "noshow-not-preferred",
            "wrong-original-winner", "down-moved-two-places", "up-moved-down",
            "focal-unranked", "focal-already-last", "spoiler-removes-winner",
            "modified-none-up", "modified-none-down",
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


TABLE1_SEARCHES = {
    "downward": lambda p, trie=None: search_monotonicity(p, OPTS, Direction.DOWNWARD, trie=trie),
    "upward": lambda p, trie=None: search_monotonicity(p, OPTS, Direction.UPWARD, trie=trie),
    "noshow": lambda p, trie=None: search_noshow(p, OPTS, trie=trie),
    "compromise": lambda p, trie=None: search_compromise(p, OPTS, trie=trie),
}


def test_table1_scan_work_pinned(table1, monkeypatch):
    """The t-scans count Table 1 once per t through ``forensics.rcv_winner``:
    20,376 / 10,956 / 26,432 / 30,181 calls for the downward, upward,
    no-show and compromise searches. Of those, 22 / 8 / 37 / 47 walk the
    rounds (``scan._evaluate``); every other call falls inside the
    constant-outcome segment of the last one that did. Those walks decide
    17 / 8 / 24 / 32 rounds (``scan._round``); every other round they
    pass is a repeat of a decided one at the same trie node, taken from its
    memo. A winner's qualification is asked once per run of t with that
    winner, not at every t: the no-show and compromise searches ask
    ``forensics.prefers`` 26 and 36 times, and the shifts never do. With the
    spoiler search, as in ``audit --checks all``, they find 10 witnesses and
    27 tie boundaries."""
    calls, full, decided, asked = [], [], [], []
    counted, evaluate, decide = forensics.rcv_winner, scan_module._evaluate, scan_module._round
    monkeypatch.setattr(forensics, "rcv_winner", lambda *a: calls.append(1) or counted(*a))
    monkeypatch.setattr(scan_module, "_evaluate", lambda *a: full.append(1) or evaluate(*a))
    monkeypatch.setattr(scan_module, "_round", lambda *a: decided.append(1) or decide(*a))
    monkeypatch.setattr(forensics, "prefers", lambda *a: asked.append(1) or prefers(*a))
    work, witnesses, boundaries = {}, 0, 0
    for name, search in TABLE1_SEARCHES.items():
        for tally in (calls, full, decided, asked):
            tally.clear()
        scan = search(table1)
        work[name] = (len(calls), len(full), len(decided), len(asked))
        witnesses += len(scan.witnesses)
        boundaries += len(scan.boundaries)
    spoilers = find_spoilers(table1, OPTS)
    witnesses += len(spoilers.witnesses)
    boundaries += len(spoilers.tie_subsets)
    assert work == {
        "downward": (20376, 22, 17, 0), "upward": (10956, 8, 8, 0),
        "noshow": (26432, 37, 24, 26), "compromise": (30181, 47, 32, 36),
    }
    assert (witnesses, boundaries) == (10, 27)


@pytest.mark.parametrize(
    "case, work",
    [
        ("table1", (114, 54, 3)),
        ("synthetic-buggy", (136, 56, 3)),
        ("generated", (1951, 514, 36)),
    ],
    ids=["table1", "synthetic-buggy", "generated"],
)
def test_audit_scans_share_one_trie(case, work, tmp_path, monkeypatch):
    """``audit --checks all`` builds one ``PrefixTrie`` and hands it to the
    four t-scans, so a round decided or a child built for one search serves
    the others. On Table 1, on the synthetic fixture in buggy mode and on
    the benchmark's generated CVR at seed 1, the audit makes 114 / 136 /
    1,951 full counts (``scan._evaluate``), as a trie per search did,
    but decides 54 / 56 / 514 rounds (``scan._round``), not 81 / 79 /
    766, and builds 3 / 3 / 36 trie children, not 11 / 10 / 102."""
    if case == "generated":
        cvr, roster = generated_cvr(tmp_path, monkeypatch)
        source = ["--input", str(cvr), "--roster", str(roster)]
    elif case == "table1":
        source = ["--fixture", "oakland-table1"]
    else:
        source = ["--fixture", "oakland-full-synthetic", "--buggy-first-round"]
    tries, full, decided, children = [], [], [], []
    trie, evaluate, decide = scan_module.PrefixTrie, scan_module._evaluate, scan_module._round
    build, child = trie.__init__, trie.child
    monkeypatch.setattr(trie, "__init__", lambda *a: tries.append(1) or build(*a))
    monkeypatch.setattr(trie, "child", lambda *a: children.append(1) or child(*a))
    monkeypatch.setattr(scan_module, "_evaluate", lambda *a: full.append(1) or evaluate(*a))
    monkeypatch.setattr(scan_module, "_round", lambda *a: decided.append(1) or decide(*a))
    argv = ["audit", *source, "--checks", "all", "--output", str(tmp_path / "audit.json")]
    assert main(argv) == 0
    assert len(tries) == 1
    assert (len(full), len(decided), len(children)) == work


@pytest.mark.parametrize("other", ["profile", "options"])
def test_search_refuses_a_trie_built_for_another_count(other, table1):
    """A trie answers for the profile and options it was built for: a search
    of Table 1 refuses a trie of another profile or of other options, and
    takes one of an equal profile."""
    if other == "profile":
        trie = scan_module.PrefixTrie(ONE_BALLOT, OPTS)
    else:
        trie = scan_module.PrefixTrie(table1, LEX)
    for search in TABLE1_SEARCHES.values():
        with pytest.raises(ValidationError, match="prefix trie"):
            search(table1, trie)
    equal = PreferenceProfile(table1.roster, dict(table1.entries))
    upward = TABLE1_SEARCHES["upward"]
    assert upward(table1, scan_module.PrefixTrie(equal, OPTS)) == upward(table1, None)


def test_scans_leave_no_reference_cycles(synthetic_raw, tmp_path):
    """An exception's traceback holds the frames it passed through, and so
    the edit count and its trie: a TieError kept past its except block would
    tie them into a cycle that only the collector frees, as would a
    recursive closure. A whole in-process audit, with the collector off,
    must leave it nothing: Table 1's scans hit tie boundaries, and the
    synthetic CVR also goes through the parse and the sanitize. Both report
    formats are written: the JSON writer must not build recursive closures,
    as ``json.dumps`` with an indent does."""
    cvr, roster = tmp_path / "cvr.jsonl", tmp_path / "roster.json"
    with open(cvr, "w", encoding="utf-8") as sink:
        emit_cvr(synthetic_raw, sink)
    roster.write_text(json.dumps(roster_to_json_dict(fixture_roster("oakland-full-synthetic"))))
    report = tmp_path / "audit"
    for source in (
        ["--fixture", "oakland-table1"],
        ["--input", str(cvr), "--roster", str(roster), "--buggy-first-round"],
    ):
        for fmt in ("text", "json"):
            argv = ["audit", *source, "--checks", "all", "--format", fmt, "--output", str(report)]
            assert main(argv) == 0  # once first, so that what the process caches is built
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                assert gc.collect() == 0
            finally:
                gc.enable()
            if fmt == "text":
                text = report.read_text()
                assert "majority cycle:" in text and "tie boundary: shift-down" in text
            else:
                doc = json.loads(report.read_text())
                assert doc["checks"]["condorcet"]["cycle"]
                assert doc["checks"]["monotonicity"]["downward"]["boundaries"]


def full_size_case(case, request, tmp_path, monkeypatch):
    """(profile, options) of Table 1, of the synthetic fixture in buggy mode,
    or of the benchmark's generated multi-round CVR at seed 1."""
    if case == "generated":
        cvr, roster_path = generated_cvr(tmp_path, monkeypatch)
        with open(roster_path, encoding="utf-8") as stream:
            roster = load_roster(stream)
        with open(cvr, encoding="utf-8") as stream:
            return sanitize_all(parse_cvr(stream, roster), ALAMEDA, roster)[0], OPTS
    if case == "table1":
        return request.getfixturevalue("table1"), OPTS
    return request.getfixturevalue("synthetic_profile"), BUGGY


def run_edit_searches(profile, options):
    """The four edit searches sharing one PrefixTrie, as ``audit`` runs them."""
    trie = scan_module.PrefixTrie(profile, options)
    for direction in Direction:
        search_monotonicity(profile, options, direction, trie=trie)
    search_noshow(profile, options, trie=trie)
    search_compromise(profile, options, trie=trie)


@pytest.mark.parametrize("case", ["table1", "synthetic-buggy", "generated"])
def test_scans_build_no_tie_error(case, request, tmp_path, monkeypatch):
    """The t-scans answer an elimination tie as a value: the four searches
    on one shared trie build no TieError, although Table 1, the synthetic
    fixture in buggy mode and the generated CVR hit 27, 31 and 438 tie
    boundaries."""
    profile, options = full_size_case(case, request, tmp_path, monkeypatch)
    built = []
    init = TieError.__init__
    monkeypatch.setattr(TieError, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    run_edit_searches(profile, options)
    assert built == []


def public_record(profile, options, source, moved_to, t):
    """The public count of one edit at t: ("won", the losers in order, then
    the winner), ("tie", the tied set of its TieError), or ("invalid", None)
    for its ValidationError."""
    ranking, flag = source
    edited = (
        profile.remove_ballots(ranking, t, flag) if moved_to is None
        else profile.replace_ballots(ranking, moved_to, t, flag)
    )
    try:
        result = rcv_tabulate(edited, options)
    except TieError as exc:
        return "tie", exc.tied
    except ValidationError:
        return "invalid", None
    return "won", tuple(cid for rnd in result.rounds for cid in rnd.eliminated) + (result.winner,)


def certify_scans(profile, options, monkeypatch):
    """Check every segment of the four edit searches on one shared trie
    with public counts only. Along one elimination path every tally is
    affine in t, so the t whose count gives one record (the losers in
    order, then the winner) form an interval: a segment is certified by
    that record at both of its ends. A tie or an emptied profile carries no
    path, so such a segment is checked at every t. The segments of each
    edit must tile 1..count. Returns the number of segments."""
    counts, segments = [], {}
    evaluate, edit_count = scan_module._evaluate, scan_module.EditCount

    def spied(count, t):
        segments.setdefault(count, []).append(evaluate(count, t))
        return segments[count][-1]

    def built(*args):
        counts.append(edit_count(*args))
        return counts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(scan_module, "_evaluate", spied)
        patch.setattr(forensics, "EditCount", built)
        run_edit_searches(profile, options)
    records = {}

    def record(count, t):
        key = (count.ranking, count.flagged), count.moved_to, t
        if key not in records:
            records[key] = public_record(profile, options, *key)
        return records[key]

    for count in counts:
        found = segments[count]
        assert [lo for lo, _, _ in found] == [1] + [hi + 1 for _, hi, _ in found[:-1]]
        assert found[-1][1] == count.source
        for lo, hi, outcome in found:
            if isinstance(outcome, str):
                kind, path = record(count, lo)
                assert (kind, path[-1]) == ("won", outcome), (count.moved_to, lo)
                assert record(count, hi) == (kind, path), (count.moved_to, lo, hi)
            else:
                expected = ("invalid", None) if outcome is None else ("tie", outcome)
                for t in range(lo, hi + 1):
                    assert record(count, t) == expected, (count.moved_to, t)
    return sum(map(len, segments.values()))


@pytest.mark.parametrize(
    "case, n_segments", [("table1", 114), ("synthetic-buggy", 136), ("generated", 1951)]
)
def test_scan_segments_certified_at_full_size(case, n_segments, request, tmp_path, monkeypatch):
    """Every segment the audit's four t-scans count on Table 1, on the
    synthetic fixture in buggy mode and on the generated CVR, certified by
    public counts of its edit."""
    profile, options = full_size_case(case, request, tmp_path, monkeypatch)
    assert certify_scans(profile, options, monkeypatch) == n_segments


@pytest.mark.parametrize("seed", range(2))
def test_scan_segments_certified_on_random_profiles(seed, monkeypatch):
    """Random profiles with write-ins, flagged types and up to 12 ballots a
    type, under every option set: both tie policies, buggy mode and both
    write-in policies. A profile whose own count ties is skipped, since
    every search starts from its winner."""
    rng = random.Random(seed)
    certified, ties = 0, 0
    while certified < 200:
        profile = make_random_profile(rng, max_types=8, max_count=12, writein_rate=0.5)
        options = rng.choice(OPTIONS)
        try:
            rcv_tabulate(profile, options)
        except (TieError, ValidationError):
            continue
        certify_scans(profile, options, monkeypatch)
        certified += 1
        ties += options.tie_policy is TiePolicy.ERROR
    assert 50 < ties < 150


class TestOracle:
    def test_bounds_refusal(self, table1):
        with pytest.raises(OracleBoundsError):
            brute_force_oracle(table1, OPTS)

    def test_oracle_shares_no_scan_code(self):
        """The oracle checks the searches, so it must not call their code:
        no definition of the scan engine, no function of the searches but
        ``prefers``, and no definition of the count that the package does
        not export. The set is read from the modules, so a helper is banned
        as soon as it is written. The one rule the oracle shares with both
        engines is the round rule ``methods._decide``: its ``rcv_tabulate``
        reaches it through ``_irv``, and the trie's ``_round`` calls it."""
        names = set()
        codes = [brute_force_oracle.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))

        def defined(module, kind):
            return {
                name for name, value in vars(module).items()
                if kind(value) and value.__module__ == module.__name__
            }

        def definition(value):
            return inspect.isfunction(value) or inspect.isclass(value)

        shared = (
            defined(scan_module, definition)
            | (defined(forensics, inspect.isfunction) - {"brute_force_oracle", "prefers"})
            | (defined(methods, definition) - set(vars(rcv_forensics)))
        )
        assert {"_first", "_scan", "_irv", "_decide", "winner_without"} <= shared
        assert names & shared == set()
        assert "rcv_tabulate" in names
        assert "_decide" in methods._irv.__code__.co_names
        assert "_decide" in scan_module._round.__code__.co_names

    def test_toy_profile_oracle_equals_searches(self, toy_cycle_profile):
        for profile, options in ((toy_cycle_profile, OPTS), (ONE_BALLOT, LEX)):
            report = brute_force_oracle(profile, options)
            losers = len(profile.roster.candidates) - 1
            assert report.spoilers == find_spoilers(profile, options, max_subset_size=losers)
            assert report.downward == search_monotonicity(profile, options, Direction.DOWNWARD)
            assert report.upward == search_monotonicity(profile, options, Direction.UPWARD)
            assert report.noshow == search_noshow(profile, options)
            assert report.compromise == search_compromise(profile, options)

    @pytest.mark.parametrize("case", ["table1", "synthetic-buggy", "generated", "generated-lex"])
    def test_oracle_equals_searches_at_full_size(self, case, request, tmp_path, monkeypatch):
        """With its bounds raised, the oracle gives what every search gives
        on Table 1, on the synthetic fixture in buggy mode, and on the
        benchmark's generated multi-round CVR at seed 1, there both with
        ties an error and with ties broken lexicographically."""
        if case.startswith("generated"):
            cvr, roster_path = generated_cvr(tmp_path, monkeypatch)
            with open(roster_path, encoding="utf-8") as stream:
                roster = load_roster(stream)
            with open(cvr, encoding="utf-8") as stream:
                profile = sanitize_all(parse_cvr(stream, roster), ALAMEDA, roster)[0]
        else:
            profile = request.getfixturevalue("table1" if case == "table1" else "synthetic_profile")
        options = {"synthetic-buggy": BUGGY, "generated-lex": LEX}.get(case, OPTS)
        candidates = len(profile.roster.candidates)
        report = brute_force_oracle(profile, options, OracleBounds(candidates, profile.total()))
        assert report.spoilers == find_spoilers(profile, options, max_subset_size=candidates - 1)
        # each search on its own trie, then the four sharing one, as audit runs them
        for trie in (None, scan_module.PrefixTrie(profile, options)):
            assert report.downward == search_monotonicity(
                profile, options, Direction.DOWNWARD, trie=trie
            )
            assert report.upward == search_monotonicity(
                profile, options, Direction.UPWARD, trie=trie
            )
            assert report.noshow == search_noshow(profile, options, trie=trie)
            assert report.compromise == search_compromise(profile, options, trie=trie)

    def test_removal_keeps_first_witness_run(self):
        """In buggy mode, removing 4-6 or 9-10 ballots of B>D>C>A elects D,
        whom they prefer to the original winner C, with other outcomes in
        between; the oracle, like the no-show search, keeps only t = 4."""
        profile = PreferenceProfile(
            CandidateRoster(tuple(Candidate(c, c) for c in "ABCD")),
            {
                (("B", "D", "C"), False): 1, (("B", "D", "C", "A"), False): 10,
                (("C", "A", "B"), False): 5, (("C", "B"), True): 7, (("D",), False): 8,
            },
        )
        report = brute_force_oracle(profile, BUGGY)
        assert NoShowWitness(("B", "D", "C", "A"), False, 4, "C", "D") in report.noshow.witnesses
        assert report.noshow == search_noshow(profile, BUGGY)

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


@pytest.mark.parametrize(
    "ranking, focal, direction, shifted",
    [
        (("R", "M", "H"), "R", Direction.DOWNWARD, ("M", "R", "H")),
        (("R", "H", "M"), "H", Direction.UPWARD, ("H", "R", "M")),
        (("R", "M", "H"), "H", Direction.DOWNWARD, None),
        (("R", "M", "H"), "R", Direction.UPWARD, None),
        (("R", "M"), "H", Direction.DOWNWARD, None),
        (("R", "M"), "H", Direction.UPWARD, None),
    ],
    ids=["down", "up", "already-last", "already-first", "unranked-down", "unranked-up"],
)
def test_shift_one_place(ranking, focal, direction, shifted):
    """The one-place swap of the shift searches and of verify_witness; a
    shift and the opposite shift of the same candidate undo each other."""
    assert _shift(ranking, focal, direction) == shifted
    if shifted is not None:
        back = Direction.UPWARD if direction is Direction.DOWNWARD else Direction.DOWNWARD
        assert _shift(shifted, focal, back) == ranking


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
