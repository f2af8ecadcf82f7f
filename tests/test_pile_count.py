"""The pile-based IRV count against the per-round count it replaced.

``reference_tabulate`` and ``reference_runoff`` re-walk every entry in every
round: ``_count`` counts each round anew and ``_transfers`` walks the
entries again to record where removed candidates' ballots go. They are the
only copy of that algorithm and exist to check ``methods.rcv_tabulate`` and
``methods.plurality_runoff``, which re-route only the removed candidates'
piles, ``scan.rcv_winner``, which counts a t-scan edit from a trie of
memoized round tallies shared by every edit of a profile, and answers a t
inside a known constant-outcome segment without counting, and
``methods.winner_without``, which counts a profile with candidates struck
out by eliminating them from the profile's shared piles. Every record,
winner, tie and error message of ``rcv_tabulate``, ``plurality_runoff`` and
``winner_without`` must agree. ``rcv_winner`` answers a tie or an emptied
profile as a value, so its answer must equal the reference's winner, the
tied set of its TieError, or None where it raises ValidationError for a
profile with no ballots or no candidate left. ``rcv_tabulate`` and
``winner_without`` share one round loop, ``methods._irv``, so the reference
checks it from both callers.
"""

import math
import random
from functools import partial

import pytest

import rcv_forensics.forensics as forensics
import rcv_forensics.scan as scan_module

from rcv_forensics import (
    ALAMEDA,
    Direction,
    RcvOptions,
    TiePolicy,
    TieError,
    ValidationError,
    WriteinPolicy,
    find_spoilers,
    plurality_runoff,
    rcv_tabulate,
    sanitize_all,
    search_compromise,
    search_monotonicity,
    search_noshow,
)
from rcv_forensics.methods import (
    RoundRecord,
    TabulationResult,
    TransferRecord,
    _decide,
    _irv,
    _piled,
    _unique,
    winner_without,
)
from rcv_forensics.scan import EditCount, PrefixTrie, _round, _steady, rcv_winner
from rcv_forensics.cvr import Candidate, CandidateRoster, load_roster, parse_cvr
from rcv_forensics.profiles import PreferenceProfile

from conftest import generated_cvr, make_random_profile


def _entries_of(profile):
    """The profile's entries as sorted (ranking, flagged, count) rows."""
    return sorted((r, f, c) for (r, f), c in profile.entries.items())


def _top(ranking, eliminated):
    for cid in ranking:
        if cid not in eliminated:
            return cid
    return None


def _count(roster_ids, entries, eliminated, hold_flagged=False):
    """Count one round: tallies of the candidates still in, in roster order,
    then exhausted and pending (held flagged) ballots."""
    tallies = {cid: 0 for cid in roster_ids if cid not in eliminated}
    exhausted = pending = 0
    for ranking, flagged, count in entries:
        top = _top(ranking, eliminated)
        if top is None:
            exhausted += count
        elif hold_flagged and flagged:
            pending += count
        else:
            tallies[top] += count
    return tallies, exhausted, pending


def _transfers(entries, eliminated, removed, held=False):
    """Where the ballots of each removed candidate go, one record each in the
    given order; under held, continuing flagged ballots leave pending as one
    trailing record with source None."""
    after = eliminated | set(removed)
    moves = {cid: {} for cid in removed}
    for ranking, flagged, count in entries:
        top = _top(ranking, eliminated)
        source = None if held and flagged else top
        if top is not None and (source is None or source in moves):
            to = moves.setdefault(source, {})
            nxt = _top(ranking, after)
            to[nxt] = to.get(nxt, 0) + count
    return tuple(
        TransferRecord(
            source,
            {k: v for k, v in sorted(to.items(), key=lambda kv: str(kv[0])) if k},
            to.get(None, 0),
        )
        for source, to in moves.items()
    )


def reference_tabulate(roster, entries, options, record):
    """The winner, and its rounds when recording, else the number of the
    round it won in."""
    total = sum(count for _, _, count in entries)
    if total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    roster_ids = roster.ids()
    eliminated = set()
    rounds = []
    writeins = roster.writein_ids()
    if options.writein_policy is WriteinPolicy.ELIMINATE_FIRST and writeins:
        if record:
            wi_order = tuple(sorted(writeins, key=roster.index))
            tallies, exhausted, _ = _count(roster_ids, entries, eliminated)
            transfers = _transfers(entries, eliminated, wi_order)
            rounds.append(RoundRecord(0, tallies, wi_order, exhausted, 0, transfers))
        eliminated |= writeins
    hold_flagged = options.buggy_first_round
    round_no = 1
    while True:
        tallies, exhausted, pending = _count(roster_ids, entries, eliminated, hold_flagged)
        if not tallies:
            raise ValidationError("no candidates left to tabulate")
        winner = max(tallies, key=tallies.__getitem__)
        if 2 * tallies[winner] > total - exhausted - pending or len(tallies) == 1:
            if record:
                rounds.append(RoundRecord(round_no, tallies, (), exhausted, pending, ()))
            return winner, rounds if record else round_no
        low = min(tallies.values())
        tied = [cid for cid, votes in tallies.items() if votes == low]
        if len(tied) > 1 and options.tie_policy is TiePolicy.ERROR:
            raise TieError(tied, f"round {round_no} elimination")
        loser = min(tied)
        if record:
            transfers = _transfers(entries, eliminated, (loser,), hold_flagged)
            rounds.append(
                RoundRecord(round_no, tallies, (loser,), exhausted, pending, transfers)
            )
        eliminated = eliminated | {loser}
        hold_flagged = False
        round_no += 1


def reference_runoff(profile):
    total = profile.total()
    if total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    ids = profile.roster.ids()
    entries = _entries_of(profile)
    tallies, exhausted, _ = _count(ids, entries, set())
    receiving = [cid for cid in ids if tallies[cid] > 0]
    if len(receiving) < 2:
        raise ValidationError("plurality runoff needs at least two candidates receiving votes")
    ranked = sorted(ids, key=lambda cid: -tallies[cid])
    if len(ranked) > 2 and tallies[ranked[1]] == tallies[ranked[2]]:
        cut = tallies[ranked[1]]
        raise TieError([cid for cid in ids if tallies[cid] == cut], "runoff qualification")
    eliminated = tuple(cid for cid in ids if cid not in ranked[:2])
    transfers = _transfers(entries, set(), eliminated)
    round1 = RoundRecord(1, tallies, eliminated, exhausted, 0, transfers)
    final, exhausted, _ = _count(ids, entries, set(eliminated))
    round2 = RoundRecord(2, final, (), exhausted, 0, ())
    winner = _unique(final, "runoff final round")
    return TabulationResult("plurality-runoff", winner, (round1, round2), total)


OPTIONS = [
    RcvOptions(writein_policy=wp, tie_policy=tp, buggy_first_round=buggy)
    for wp in WriteinPolicy
    for tp in TiePolicy
    for buggy in (False, True)
    if not (buggy and wp is WriteinPolicy.TREAT_AS_CANDIDATES)
]


def outcome(fn, *args):
    """A call's value, or its error's type, tied set and message."""
    try:
        return ("ok", fn(*args))
    except TieError as exc:
        return ("tie", exc.tied, str(exc))
    except ValidationError as exc:
        return ("invalid", str(exc))


def scan_value(fn, *args):
    """A reference count as ``rcv_winner`` answers it: the winner, the tied
    set of a TieError, or None for a profile with no ballots or no
    candidate left."""
    try:
        return fn(*args)
    except TieError as exc:
        return exc.tied
    except ValidationError as exc:
        assert str(exc) in ("cannot tabulate an empty profile", "no candidates left to tabulate")
        return None


def random_case(rng):
    """A random profile that may hold a write-in, flagged entries, empty and
    write-in-only rankings, and, after removing candidates, an empty or
    all-write-in roster."""
    profile = make_random_profile(rng, max_types=10, writein_rate=0.5)
    ids = profile.roster.ids()
    if rng.random() < 0.2:
        profile = profile.remove_candidates(rng.sample(ids, rng.randint(1, len(ids))))
    return profile


def random_edit(rng, profile):
    """A source type of the profile and where its ballots go: a one-place
    shift, a promotion to first, any ranking over the roster (often a type
    the profile lacks), or None for removal."""
    ranking, flag = rng.choice(sorted(profile.entries))
    kind = rng.randrange(4)
    moved_to = None
    if kind == 0 and len(ranking) > 1:
        i = rng.randrange(len(ranking) - 1)
        moved_to = ranking[:i] + (ranking[i + 1], ranking[i]) + ranking[i + 2 :]
    elif kind == 1 and len(ranking) > 1:
        promoted = rng.choice(ranking[1:])
        moved_to = (promoted,) + tuple(cid for cid in ranking if cid != promoted)
    elif kind == 2:
        ids = profile.roster.ids()
        moved_to = tuple(rng.sample(ids, rng.randint(0, len(ids))))
        if moved_to == ranking:
            moved_to = None
    return (ranking, flag), moved_to


@pytest.mark.parametrize("seed", range(4))
def test_pile_count_matches_reference(seed):
    """Compared by repr, which also sees the order of each tallies and
    transfer dict: the text report prints them in that order."""
    rng = random.Random(seed)
    for _ in range(500):
        profile = random_case(rng)
        entries = _entries_of(profile)
        for options in OPTIONS:
            expected = outcome(reference_tabulate, profile.roster, entries, options, True)
            if expected[0] == "ok":
                winner, rounds = expected[1]
                expected = ("ok", TabulationResult("rcv", winner, tuple(rounds), profile.total()))
            assert repr(outcome(rcv_tabulate, profile, options)) == repr(expected)
        assert repr(outcome(plurality_runoff, profile)) == repr(outcome(reference_runoff, profile))


@pytest.mark.parametrize("seed", range(4))
def test_winner_without_matches_reference(seed):
    """winner_without on one profile's piles, against the reference round
    loop on the profile with the same candidates struck out by
    ``remove_candidates``: the winner, or the error's tied set and message.
    The subsets of one profile and option set share one set of piles, so a
    count that moved their rows shows on the next. Striking may empty the
    roster, leave only write-ins or empty every ranking, and some profiles
    hold no ballots at all."""
    rng = random.Random(seed)
    for _ in range(150):
        profile = random_case(rng)
        if rng.random() < 0.05:
            profile = PreferenceProfile(profile.roster, {})
        ids = profile.roster.ids()
        subsets = [tuple(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(4)]
        for options in OPTIONS:
            piles = _piled(profile, options)
            for removed in subsets:
                reduced = profile.remove_candidates(removed)
                entries = _entries_of(reduced)
                expected = outcome(
                    lambda: reference_tabulate(reduced.roster, entries, options, False)[0]
                )
                got = outcome(winner_without, piles, removed, options.tie_policy)
                assert got == expected, (removed, options)


def check_ledger(result):
    """Every ballot of a recorded count is accounted for. Each round's
    tallies, exhausted and pending sum to the total. Each transfer's ``to``
    and exhausted sum to the loser's tally, or, for the None-source record
    of buggy round 1, to the pending ballots that rejoin the count. The next
    round's tallies and exhausted are this round's plus the transfers, less
    the ballots it sets pending, which only buggy round 1 does, as one
    total. Returns the number of rounds checked."""
    rounds = result.rounds
    for rnd in rounds:
        assert sum(rnd.tallies.values()) + rnd.exhausted + rnd.pending == result.total_ballots
    assert rounds[-1].eliminated == rounds[-1].transfers == ()
    for rnd, nxt in zip(rounds, rounds[1:]):
        assert tuple(t.source for t in rnd.transfers if t.source is not None) == rnd.eliminated
        assert set(nxt.tallies) == set(rnd.tallies) - set(rnd.eliminated)
        arrived = dict.fromkeys(nxt.tallies, 0)
        for transfer in rnd.transfers:
            left = rnd.pending if transfer.source is None else rnd.tallies[transfer.source]
            assert sum(transfer.to.values()) + transfer.exhausted == left, transfer
            assert set(transfer.to) <= set(arrived), transfer
            for cid, n in transfer.to.items():
                arrived[cid] += n
        assert nxt.exhausted == rnd.exhausted + sum(t.exhausted for t in rnd.transfers)
        set_pending = {cid: rnd.tallies[cid] + n - nxt.tallies[cid] for cid, n in arrived.items()}
        assert min(set_pending.values(), default=0) >= 0, (rnd, nxt)
        assert sum(set_pending.values()) == nxt.pending, (rnd, nxt)
    return len(rounds)


@pytest.mark.parametrize("fixture", ["table1", "synthetic_profile"])
def test_full_counts_account_for_every_ballot(fixture, request):
    """The ledger of both full fixtures, counted plain and buggy, and of
    their plurality runoffs."""
    profile = request.getfixturevalue(fixture)
    for buggy in (False, True):
        check_ledger(rcv_tabulate(profile, RcvOptions(buggy_first_round=buggy)))
    check_ledger(plurality_runoff(profile))


@pytest.mark.parametrize("seed", range(2))
def test_random_counts_account_for_every_ballot(seed):
    """The ledger of every count of random profiles with write-ins and
    flagged types under every option set, and of their plurality runoffs;
    a count that ties or has nothing to count records nothing."""
    rng = random.Random(seed)
    rounds = 0
    for _ in range(500):
        profile = make_random_profile(rng, writein_rate=0.5)
        counts = [(rcv_tabulate, profile, options) for options in OPTIONS]
        for call in (*counts, (plurality_runoff, profile)):
            result = outcome(*call)
            if result[0] == "ok":
                rounds += check_ledger(result[1])
    assert rounds > 5000


def _counts_of(profile, options):
    """Every count of a profile that reads its entries: the recorded IRV
    count, the plurality runoff, the spoiler search over every subset size,
    and the four t-scans on one PrefixTrie of this profile. Each is its
    value or its error, by repr."""
    trie = PrefixTrie(profile, options)
    calls = [
        (rcv_tabulate, profile, options),
        (plurality_runoff, profile),
        (find_spoilers, profile, options, len(profile.roster.ids())),
        *((partial(search_monotonicity, trie=trie), profile, options, d) for d in Direction),
        (partial(search_noshow, trie=trie), profile, options),
        (partial(search_compromise, trie=trie), profile, options),
    ]
    return [repr(outcome(*call)) for call in calls]


@pytest.mark.parametrize("seed", range(2))
def test_counts_ignore_entry_order(seed):
    """Piles take their rows in the order of the profile's entries, so
    every count must read the same from a twin profile holding the same
    entries in a shuffled order: records, transfers, winners, witnesses,
    boundaries and errors alike. The twin compares equal to the profile, so
    each gets its own trie."""
    rng = random.Random(seed)
    reordered = 0
    for _ in range(150):
        profile = random_case(rng)
        for options in OPTIONS:
            items = list(profile.entries.items())
            rng.shuffle(items)
            twin = PreferenceProfile(profile.roster, dict(items))
            assert twin == profile
            reordered += list(twin.entries) != list(profile.entries)
            assert _counts_of(twin, options) == _counts_of(profile, options), options
    assert reordered > 500


def _descendants(node):
    """Every node below a PrefixTrie node; a node's children are its field 1."""
    for child in node[1].values():
        yield child
        yield from _descendants(child)


@pytest.mark.parametrize("seed", range(2))
def test_piles_hold_flagged_ballots_until_round_1_ends(seed):
    """In buggy mode piles hold round 1's flagged totals exactly until the
    count's first elimination: ``_piled`` holds them after the write-in
    batch, ``_irv`` still holds them when it ends in round 1 (a winner, a
    tie or an error) and has dropped them once it eliminated anyone, and in
    a PrefixTrie only the root holds them: every child that ``rcv_winner``
    reaches over a scan of each t holds none. The draws must cover
    profiles with and without a write-in, counts that end in round 1 and
    counts that eliminate, and tries with children."""
    rng = random.Random(seed)
    buggy = [options for options in OPTIONS if options.buggy_first_round]
    seen = set()
    for _ in range(150):
        profile = random_case(rng)
        writein = bool(profile.roster.writein_ids())
        edits = [random_edit(rng, profile) for _ in range(3)]
        for options in buggy:
            piles = _piled(profile, options)
            assert piles.held is not None
            rounds = []
            outcome(_irv, piles, options.tie_policy, rounds)
            eliminated = any(r.number >= 1 and r.eliminated for r in rounds)
            assert (piles.held is None) == eliminated, (profile.entries, options)
            seen.add(("irv", writein, eliminated))
            trie = PrefixTrie(profile, options)
            for source, moved_to in edits:
                count = EditCount(trie, source, moved_to)
                for t in range(profile.entries[source] + 1):
                    outcome(rcv_winner, count, t)
            if trie.root is not None:
                assert trie.root[2].held is not None
                children = list(_descendants(trie.root))
                assert all(node[2].held is None for node in children)
                if children:
                    seen.add(("trie", writein))
    assert seen == {("irv", w, e) for w in (False, True) for e in (False, True)} | {
        ("trie", w) for w in (False, True)
    }


def edited_entries(profile, source, moved_to, t):
    """The profile's entry rows with the edit at t applied, built without
    the profile's validation: the full-size test below makes one per t."""
    counts = dict(profile.entries)
    counts[source] -= t
    if moved_to is not None:
        dest = (moved_to, source[1])
        counts[dest] = counts.get(dest, 0) + t
    return sorted((r, f, c) for (r, f), c in counts.items() if c)


def reference_winner(profile, options, source, moved_to, t):
    entries = edited_entries(profile, source, moved_to, t)
    return reference_tabulate(profile.roster, entries, options, False)[0]


@pytest.mark.parametrize("seed", range(4))
def test_edit_count_matches_reference(seed):
    """rcv_winner of EditCounts at each t of random edits, against the
    reference round loop on the edited profile: the winner, the tied set of
    its TieError, or None where it finds no ballots or no candidate. The
    edits of one profile and option set share one PrefixTrie, so nodes
    built for one edit serve the next, and their t are asked in one
    shuffled order with repeats, so a segment kept from one t and wrongly
    reused at another shows. Some profiles hold a single type, so removal
    can empty them."""
    rng = random.Random(seed)
    for _ in range(150):
        profile = random_case(rng)
        if rng.random() < 0.15:
            key = rng.choice(sorted(profile.entries))
            profile = PreferenceProfile(profile.roster, {key: profile.entries[key]})
        edits = [random_edit(rng, profile) for _ in range(3)]
        for options in OPTIONS:
            trie = PrefixTrie(profile, options)
            counts = [EditCount(trie, source, moved_to) for source, moved_to in edits]
            expected = {
                (i, t): scan_value(reference_winner, profile, options, source, moved_to, t)
                for i, (source, moved_to) in enumerate(edits)
                for t in range(profile.entries[source] + 1)
            }
            asks = list(expected) * 2
            rng.shuffle(asks)
            for i, t in asks:
                got = rcv_winner(counts[i], t)
                assert got == expected[i, t], (edits[i], t, options)


@pytest.mark.parametrize("moved_to", [None, ("R", "H")], ids=["remove", "move"])
@pytest.mark.parametrize(
    "t_of", [lambda n: -3, lambda n: -1, lambda n: n + 1, lambda n: 10**9],
    ids=["-3", "-1", "count+1", "1e9"],
)
def test_edit_size_outside_source_count_rejected(table1, moved_to, t_of, monkeypatch):
    """t counts ballots of the source type, so it lies in 0..count: a
    negative t would add ballots to a removal and a larger one would count
    negative ballots. t = 0 is the unedited profile. A kept segment never
    answers a t outside 0..count: once the segment ends at count, such a t
    is still refused, without a count."""
    source = (("H",), False)
    count = EditCount(PrefixTrie(table1, RcvOptions()), source, moved_to)
    n = table1.entries[source]
    outside = rf"edit size -?\d+ is outside 0\.\.{n}"
    with pytest.raises(ValidationError, match=outside):
        rcv_winner(count, t_of(n))
    assert rcv_winner(count, 0) == rcv_tabulate(table1).winner
    assert rcv_winner(count, n) in table1.roster.ids()
    assert count.segment[1] == n

    def fail(*args):
        raise AssertionError("counted in full")

    monkeypatch.setattr(scan_module, "_evaluate", fail)
    for t in (n + 1, -1, t_of(n)):
        with pytest.raises(ValidationError, match=outside):
            rcv_winner(count, t)


@pytest.mark.parametrize(
    "value, slope, rise",
    [
        (5, 0, math.inf), (0, 0, math.inf), (4, 1, math.inf), (-4, -3, math.inf),
        (0, 1, 0), (0, -2, 0), (1, -1, 0), (1, -3, 0), (2, -2, 0),
        (3, -1, 2), (3, -2, 1), (-5, 2, 2), (-7, 3, 2), (6, -3, 1),
    ],
)
def test_steady_keeps_sign(value, slope, rise):
    """How far t may rise with value + slope * rise keeping value's sign,
    zero included: a zero that moves changes sign at once."""
    sign = lambda x: (x > 0) - (x < 0)
    assert _steady(value, slope) == rise
    if rise != math.inf:
        assert sign(value + slope * rise) == sign(value) != sign(value + slope * (rise + 1))


def _decided(base, source, dest, t, tie_policy):
    """``_decide`` on base with t ballots moved from source to dest (None
    is no one): (won, candidate), or None and the tied set."""
    tallies = dict(base)
    if source is not None:
        tallies[source] -= t
    if dest is not None:
        tallies[dest] += t
    return _decide(tallies, sum(tallies.values()), tie_policy)


@pytest.mark.parametrize("seed", range(4))
def test_round_rise_keeps_the_decision(seed):
    """Every t' in t..t + rise of a ``_round`` decides as t does: the same
    winner or loser, or the same tied set. Tallies of 1 to 5 candidates, a
    source and a destination that may each be no one (a removal when the
    destination is), both tie policies and random t; a source's tally never
    goes below zero, and with no source t' runs 40 past t."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(2500):
        ids = "ABCDE"[: rng.randint(1, 5)]
        base = {cid: rng.randint(0, 12) for cid in ids}
        source, dest = rng.choice([*ids, None]), rng.choice([*ids, None])
        if source == dest:
            continue
        last = base[source] if source is not None else 40
        t = rng.randint(0, last)
        if source is None:
            last += t
        for tie_policy in TiePolicy:
            rise, won, decided = _round(base, (source, dest, t), tie_policy)
            assert (won, decided) == _decided(base, source, dest, t, tie_policy)
            for later in range(t + 1, min(t + rise, last) + 1):
                got = _decided(base, source, dest, later, tie_policy)
                assert got == (won, decided), (base, source, dest, t, later, tie_policy)
                checks += 1
    assert checks > 10_000


@pytest.mark.parametrize(
    "base, key, tie_policy, decision",
    [
        ({"A": 3}, ("A", None, 1), TiePolicy.ERROR, (math.inf, True, "A")),
        ({"A": 0}, (None, "A", 0), TiePolicy.ERROR, (math.inf, True, "A")),
        ({"A": 7, "B": 2}, ("A", "B", 0), TiePolicy.ERROR, (2, True, "A")),
        ({"A": 5, "B": 4, "C": 1}, ("B", "C", 0), TiePolicy.ERROR, (1, False, "C")),
        ({"A": 6, "B": 5, "C": 4, "D": 1}, ("B", "C", 0), TiePolicy.ERROR, (3, False, "D")),
        (
            {"A": 4, "B": 3, "C": 3}, ("B", "A", 0), TiePolicy.ERROR,
            (0, None, ("B", "C")),
        ),
        ({"A": 4, "B": 3, "C": 3}, ("B", "A", 0), TiePolicy.ELIMINATE_LEX_SMALLEST, (0, False, "B")),
        (
            {"A": 1, "B": 1}, None, TiePolicy.ERROR,
            (math.inf, None, ("A", "B")),
        ),
    ],
    ids=[
        "last-loses", "last-gains", "majority-margin", "lowest-overtaken", "mid-field-swap",
        "lowest-splits-tie", "lowest-splits-lex", "nothing-moves",
    ],
)
def test_round_rise_ends_at_the_first_flip(base, key, tie_policy, decision):
    """The rise of a ``_round`` reaches the last t before one of the
    comparisons ``_decide`` made flips, and no nearer: the last candidate
    wins whatever moves; a majority winner keeps its margin (t = 2 leaves
    A 5 of 9, t = 3 A 4); C stays lowest to t = 1 and B takes its place at
    t = 2; B and C swap at t = 1 above the lowest D, which only B overtakes
    after t = 3; a tied lowest set whose members move apart splits at once."""
    assert _round(base, key, tie_policy) == decision


def test_mid_field_swap_keeps_one_segment():
    """Moving ballots from B to C swaps the 2nd and 3rd tallies between t = 0
    and t = 1, but round 1 reads only D's lowest tally and the majority
    margins, so one count covers t = 0..3; at t = 4 B ties D for lowest,
    which the count answers as the tied set."""
    roster = CandidateRoster(tuple(Candidate(c, c) for c in "ABCD"))
    profile = PreferenceProfile(
        roster,
        {(("A",), False): 10, (("B",), False): 6, (("C",), False): 5, (("D", "A"), False): 2},
    )
    count = EditCount(PrefixTrie(profile, RcvOptions()), (("B",), False), ("C",))
    assert rcv_winner(count, 0) == "A"
    assert count.segment == (0, 3, "A")
    assert rcv_winner(count, 4) == ("B", "D")


def test_segment_stops_at_the_edit_size_and_short_of_an_empty_profile(monkeypatch):
    """A segment never reaches past the source count, and a removal's never
    reaches the t that empties the profile, whose count is None, a segment
    of that t alone. Every t of a segment, both ends included, is answered
    without a count."""
    roster = CandidateRoster(tuple(Candidate(c, c) for c in "AB"))
    lone = PreferenceProfile(roster, {(("A", "B"), False): 5})
    count = EditCount(PrefixTrie(lone, RcvOptions()), (("A", "B"), False), None)
    assert rcv_winner(count, 1) == "A"
    assert count.segment == (1, 4, "A")
    assert rcv_winner(count, 5) is None
    assert count.segment == (5, 5, None)
    moved = EditCount(PrefixTrie(lone, RcvOptions()), (("A", "B"), False), ("B", "A"))
    assert rcv_winner(moved, 0) == "A"
    assert moved.segment == (0, 2, "A")
    assert rcv_winner(moved, 4) == "B"
    assert moved.segment == (4, 5, "B")
    monkeypatch.setattr(scan_module, "_evaluate", None)
    assert [rcv_winner(moved, t) for t in (4, 5, 4)] == ["B", "B", "B"]


@pytest.mark.parametrize("case", ["table1", "synthetic-buggy", "generated"])
def test_scan_counts_match_reference_at_full_size(
    case, table1, synthetic_profile, tmp_path, monkeypatch
):
    """Every rcv_winner call of the four edit searches on a full fixture,
    answered from the shared trie and the segments, against the reference
    round loop counting the edited profile from scratch at that t; and how
    many of those calls counted in full (``scan._evaluate``). The
    benchmark's generated multi-round CVR at seed 1 is where a count most
    often looks a row's candidate up again, after an elimination."""
    if case == "generated":
        cvr, roster_path = generated_cvr(tmp_path, monkeypatch)
        with open(roster_path, encoding="utf-8") as stream:
            roster = load_roster(stream)
        with open(cvr, encoding="utf-8") as stream:
            profile = sanitize_all(parse_cvr(stream, roster), ALAMEDA, roster)[0]
        options = RcvOptions()
    else:
        profile, options = {
            "table1": (table1, RcvOptions()),
            "synthetic-buggy": (synthetic_profile, RcvOptions(buggy_first_round=True)),
        }[case]
    calls = []

    def checked(count, t):
        source, moved_to = (count.ranking, count.flagged), count.moved_to
        expected = scan_value(reference_winner, profile, options, source, moved_to, t)
        assert rcv_winner(count, t) == expected, (source, moved_to, t)
        calls.append(t)
        return rcv_winner(count, t)

    full = []
    evaluate = scan_module._evaluate
    monkeypatch.setattr(forensics, "rcv_winner", checked)
    monkeypatch.setattr(scan_module, "_evaluate", lambda *a: full.append(1) or evaluate(*a))
    for direction in Direction:
        search_monotonicity(profile, options, direction)
    search_noshow(profile, options)
    search_compromise(profile, options)
    assert len(calls) == {"table1": 87945, "synthetic-buggy": 86234, "generated": 3898}[case]
    assert len(full) == {"table1": 114, "synthetic-buggy": 136, "generated": 1951}[case]


MULTIROUND_OPTIONS = [
    RcvOptions(),
    RcvOptions(tie_policy=TiePolicy.ELIMINATE_LEX_SMALLEST),
    RcvOptions(buggy_first_round=True),
]


def multiround_profile(seed):
    """A profile shaped like a real multi-round contest: 7 candidates, every
    bullet vote and 143 longer rankings, 150 types of 1 to 5 ballots, a
    quarter of them flagged. Drawn again until its count takes at least five
    rounds with no elimination tie under each option set below."""
    rng = random.Random(seed)
    ids = "ABCDEFG"
    roster = CandidateRoster(tuple(Candidate(c, c) for c in ids))
    while True:
        rankings = dict.fromkeys((c,) for c in ids)
        while len(rankings) < 150:
            rankings.setdefault(tuple(rng.sample(ids, rng.randint(2, len(ids)))))
        profile = PreferenceProfile(
            roster,
            {(r, rng.random() < 0.25): rng.randint(1, 5) for r in rankings},
        )
        try:
            if all(len(rcv_tabulate(profile, o).rounds) >= 5 for o in MULTIROUND_OPTIONS):
                return profile
        except TieError:
            pass


@pytest.mark.parametrize("options", MULTIROUND_OPTIONS, ids=["error", "lex", "buggy"])
def test_round_memo_matches_reference_at_full_size(options, monkeypatch):
    """The four edit searches on a 7-candidate, five-round profile, where
    many edits share a round's key at a trie node: every rcv_winner answer
    against the reference round loop at that t, and fewer round decisions
    (``_round``) than the full counts walked rounds, so answers came from
    the node memos. The searches run once with a trie each and once sharing
    one, as ``audit`` runs them; sharing decides fewer rounds still."""
    profile = multiround_profile(23)
    reference = {}  # (source, moved_to, t) -> (outcome, rounds counted)

    def checked(count, t):
        key = (count.ranking, count.flagged), count.moved_to, t
        if key not in reference:
            entries = edited_entries(profile, *key)
            try:
                winner, last = reference_tabulate(profile.roster, entries, options, False)
                reference[key] = winner, last
            except TieError as exc:
                reference[key] = exc.tied, int(exc.context.split()[1])
        assert rcv_winner(count, t) == reference[key][0], key
        return rcv_winner(count, t)

    full, decided = [], []
    evaluate, decide = scan_module._evaluate, scan_module._round

    def counted(count, t):
        full.append(((count.ranking, count.flagged), count.moved_to, t))
        return evaluate(count, t)

    monkeypatch.setattr(forensics, "rcv_winner", checked)
    monkeypatch.setattr(scan_module, "_evaluate", counted)
    monkeypatch.setattr(scan_module, "_round", lambda *a: decided.append(1) or decide(*a))
    rounds_decided = []
    for trie in (None, PrefixTrie(profile, options)):
        full.clear()
        decided.clear()
        for direction in Direction:
            search_monotonicity(profile, options, direction, trie=trie)
        search_noshow(profile, options, trie=trie)
        search_compromise(profile, options, trie=trie)
        assert len(decided) < sum(reference[key][1] for key in full)
        rounds_decided.append(len(decided))
    assert rounds_decided[1] < rounds_decided[0]
