"""The pile-based IRV count against the per-round count it replaced.

``reference_tabulate`` and ``reference_runoff`` re-walk every entry in every
round: ``_count`` counts each round anew and ``_transfers`` walks the
entries again to record where removed candidates' ballots go. They are the
only copy of that algorithm and exist to check ``methods.rcv_tabulate`` and
``methods.plurality_runoff``, which re-route only the removed candidates'
piles, and ``methods.rcv_winner``, which counts a t-scan edit from memoized
round tallies plus the two edited rows. Every record, winner, tie and error
message must agree.
"""

import random

import pytest

from rcv_forensics import (
    RcvOptions,
    TiePolicy,
    TieError,
    ValidationError,
    WriteinPolicy,
    plurality_runoff,
    rcv_tabulate,
)
from rcv_forensics.methods import (
    EditCount,
    RoundRecord,
    TabulationResult,
    TransferRecord,
    _entries_of,
    _unique,
    rcv_winner,
)
from rcv_forensics.profiles import PreferenceProfile

from conftest import make_random_profile


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
            return winner, rounds if record else None
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


def edited(profile, source, moved_to, t):
    if moved_to is None:
        return profile.remove_ballots(source[0], t, source[1])
    return profile.replace_ballots(source[0], moved_to, t, source[1])


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
def test_edit_count_matches_reference(seed):
    """rcv_winner of an EditCount at every t of a random edit, against the
    reference round loop on the edited profile: the winner, or the error's
    tied set and message. Some profiles hold a single type, so removal can
    empty them."""
    rng = random.Random(seed)
    for _ in range(300):
        profile = random_case(rng)
        if rng.random() < 0.15:
            key = rng.choice(sorted(profile.entries))
            profile = PreferenceProfile(profile.roster, {key: profile.entries[key]})
        source, moved_to = random_edit(rng, profile)
        for options in OPTIONS:
            count = EditCount(profile, options, source, moved_to)
            for t in range(1, profile.entries[source] + 1):
                expected = outcome(
                    lambda p: reference_tabulate(p.roster, _entries_of(p), options, False)[0],
                    edited(profile, source, moved_to, t),
                )
                assert outcome(rcv_winner, count, t) == expected, (source, moved_to, t, options)
