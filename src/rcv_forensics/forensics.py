"""Automated detection of election pathologies, each returned as a replayable
witness: spoiler effects, downward and upward monotonicity paradoxes, no-show
paradoxes, and compromise-vote failures.

The monotonicity, no-show and compromise searches only build their edits
(move t ballots of one existing type to a modified type, or delete them) and
hand them to one engine, ``_scan``, which counts every t and cuts the
outcomes into witness runs and tie boundaries, returned as one ``EditScan``.
The edits count on one ``scan.PrefixTrie`` of the profile: ``audit``
builds one and hands it to all four searches as ``trie=``, and a search
given none builds its own. So each elimination prefix is counted once for
all the edits of an audit, and ``_scan`` adds one ``scan.EditCount`` per
edit. ``rcv_winner`` is still called at every t, but only a t outside the
constant-outcome segment of the last full count walks the rounds, and each
round it walks is decided once per trie node for all the edits, of any
search, whose two rows count for the same candidates there at the same t.
Searches scan only ballot types already present in the profile and only
single-position (adjacent) shifts.
The t-scan is linear because the winner as a function of t need not be
monotone across elimination-order changes. Consecutive t values with the same
new winner merge into one witness, whose qualification is asked once per run,
not at every t; a t whose count hits an elimination tie is a boundary instead.
``rcv_winner`` answers a tie or an emptied profile as a value, not an error.

``find_spoilers`` removes subsets of losing candidates by elimination, not
by rebuilding the profile: a candidate struck from every ranking counts as
one eliminated before round 1 (each ballot moves to its next choice, and one
left with none is exhausted), so the profile is piled once
(``methods._piled``) and each subset is counted on a copy of those piles by
``methods.winner_without``. Only the original winner is a full
``rcv_tabulate``.

``brute_force_oracle`` re-derives every report by plain enumeration over the
public profile edits and full tabulation: each edit kind is one list of edits
for one nested scan, which tabulates every t with ``rcv_tabulate`` and cuts
the outcomes into runs with ``itertools.groupby``. Its default bounds admit
small instances only; it exists to pin the searches down, so it deliberately
shares none of their scan code.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .cvr import ValidationError
from .methods import RcvOptions, TieError, _piled, rcv_tabulate, winner_without
from .profiles import PreferenceProfile, Ranking
from .scan import EditCount, PrefixTrie, rcv_winner


class Direction(enum.Enum):
    DOWNWARD = "downward"
    UPWARD = "upward"


@dataclass(frozen=True)
class MonotonicityWitness:
    direction: Direction
    focal_candidate: str
    ballot_type: Ranking
    raw_first_invalid: bool
    modified_type: Ranking
    min_count: int
    max_count: int
    original_winner: str
    new_winner: str


@dataclass(frozen=True)
class NoShowWitness:
    ballot_type: Ranking
    raw_first_invalid: bool
    count: int
    original_winner: str
    new_winner: str


@dataclass(frozen=True)
class CompromiseWitness:
    ballot_type: Ranking
    raw_first_invalid: bool
    promoted_candidate: str
    count: int
    max_count: int
    original_winner: str
    new_winner: str


@dataclass(frozen=True)
class SpoilerWitness:
    removed: tuple[str, ...]
    original_winner: str
    new_winner: str


@dataclass(frozen=True)
class TieBoundary:
    """An edit size whose re-tabulation hit an elimination tie."""

    edit: str
    ballot_type: Ranking
    raw_first_invalid: bool
    candidate: str | None
    count: int
    tied: tuple[str, ...]


@dataclass(frozen=True)
class EditScan:
    """Witnesses and tie boundaries of one shift, removal or promotion search."""

    witnesses: tuple[MonotonicityWitness | NoShowWitness | CompromiseWitness, ...]
    boundaries: tuple[TieBoundary, ...]


@dataclass(frozen=True)
class SpoilerScan:
    witnesses: tuple[SpoilerWitness, ...]
    tie_subsets: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class PathologyReport:
    spoilers: SpoilerScan
    downward: EditScan
    upward: EditScan
    noshow: EditScan
    compromise: EditScan


@dataclass(frozen=True)
class OracleBounds:
    max_candidates: int = 4
    max_total_ballots: int = 60


class OracleBoundsError(ValueError):
    pass


def prefers(ranking: Sequence[str], a: str, b: str) -> bool:
    """True iff the ballot type strictly prefers a to b: unranked candidates
    sit below every ranked one and are mutually tied."""
    if a not in ranking:
        return False
    if b not in ranking:
        return True
    return ranking.index(a) < ranking.index(b)


Edit = tuple  # (ballot_type, raw_first_invalid, candidate, modified_type | None)


def _scan(
    profile: PreferenceProfile,
    options: RcvOptions,
    edit_name: str,
    edits: list[Edit],
    qualifies: Callable[[Edit, str], bool],
    witness: Callable[..., MonotonicityWitness | NoShowWitness | CompromiseWitness],
    trie: PrefixTrie | None,
) -> EditScan:
    """The t-scan behind every edit search. For each edit and every t in
    1..count(ballot_type), move t ballots of the type to modified_type (or
    delete them when it is None) and count the edited profile with one
    rcv_winner call on the edit's EditCount; the edits share one PrefixTrie,
    trie when given (it must be built for profile and options), else a new
    one.
    The outcome at t is ``rcv_winner``'s value, never an error: the winner,
    the tied candidates, or None when a removal empties the profile. A run
    of t with one winner is asked ``qualifies(edit, winner)`` once and, if
    it qualifies, becomes ``witness(*edit, lo, hi, winner)``; a removal
    keeps only its first. A run of one tie is a TieBoundary at its first t.
    Both come in edit order."""
    if trie is None:
        trie = PrefixTrie(profile, options)
    elif (trie.profile, trie.options) != (profile, options):
        raise ValidationError("the prefix trie was built for another profile or options")
    witnesses: list = []
    boundaries: list[TieBoundary] = []
    for edit in edits:
        ranking, flag, candidate, modified = edit
        count = EditCount(trie, (ranking, flag), modified)
        runs: list[list] = []
        previous = run = None
        for t in range(1, count.source + 1):
            outcome = rcv_winner(count, t)
            if outcome == previous:
                if run is not None:
                    run[1] = t
                continue
            previous, run = outcome, None
            if isinstance(outcome, tuple):
                boundaries.append(TieBoundary(edit_name, ranking, flag, candidate, t, outcome))
            elif outcome is not None and qualifies(edit, outcome):
                run = [t, t, outcome]
                runs.append(run)
        witnesses += [witness(*edit, *r) for r in (runs[:1] if modified is None else runs)]
    return EditScan(tuple(witnesses), tuple(boundaries))


def _shift(ranking: Ranking, focal: str, direction: Direction) -> Ranking | None:
    """ranking with focal one place down or up; None if unranked or already at that end."""
    if focal not in ranking:
        return None
    i = ranking.index(focal)
    j = i + 1 if direction is Direction.DOWNWARD else i - 1
    if not 0 <= j < len(ranking):
        return None
    shifted = list(ranking)
    shifted[i], shifted[j] = shifted[j], shifted[i]
    return tuple(shifted)


def search_monotonicity(
    profile: PreferenceProfile,
    options: RcvOptions,
    direction: Direction,
    *,
    trie: PrefixTrie | None = None,
) -> EditScan:
    """Downward: shift each losing candidate one position down on each ballot
    type ranking it above last place; a run of t where that candidate wins is
    a witness. Upward: shift the winner one position up where ranked below
    first; a run of t where the winner loses is a witness. Like every edit
    search, it counts on trie, a PrefixTrie of profile and options that
    other searches may share, or on a new one."""
    original_winner = rcv_tabulate(profile, options).winner
    if direction is Direction.DOWNWARD:
        focals = [cid for cid in profile.roster.ids() if cid != original_winner]
        edit_name = "shift-down"
        qualifies = lambda edit, w: w == edit[2]
    else:
        focals = [original_winner]
        edit_name = "shift-up"
        qualifies = lambda edit, w: w != edit[2]

    edits = [
        (ranking, flag, focal, modified)
        for focal in focals
        for ranking, flag in sorted(profile.entries)
        if (modified := _shift(ranking, focal, direction)) is not None
    ]

    return _scan(
        profile, options, edit_name, edits, qualifies,
        lambda ranking, flag, focal, modified, lo, hi, w: MonotonicityWitness(
            direction, focal, ranking, flag, modified, lo, hi, original_winner, w
        ),
        trie,
    )


def search_noshow(
    profile: PreferenceProfile, options: RcvOptions, *, trie: PrefixTrie | None = None
) -> EditScan:
    """Remove t ballots of each type; the minimal t whose new winner the type
    strictly prefers to the original winner is a witness."""
    original_winner = rcv_tabulate(profile, options).winner
    edits = [(ranking, flag, None, None) for ranking, flag in sorted(profile.entries)]
    return _scan(
        profile, options, "remove", edits,
        lambda edit, w: prefers(edit[0], w, original_winner),
        lambda ranking, flag, _, __, lo, hi, w: NoShowWitness(
            ranking, flag, lo, original_winner, w
        ),
        trie,
    )


def _promote(ranking: Ranking, candidate: str) -> Ranking:
    return (candidate,) + tuple(cid for cid in ranking if cid != candidate)


def search_compromise(
    profile: PreferenceProfile, options: RcvOptions, *, trie: PrefixTrie | None = None
) -> EditScan:
    """Move each non-first candidate to first on t ballots of each type; runs
    of t whose new winner the type strictly prefers to the original winner are
    witnesses (one per constant-winner run, count = the run's minimum)."""
    original_winner = rcv_tabulate(profile, options).winner
    edits = [
        (ranking, flag, promoted, _promote(ranking, promoted))
        for ranking, flag in sorted(profile.entries)
        for promoted in ranking[1:]
    ]
    return _scan(
        profile, options, "promote", edits,
        lambda edit, w: prefers(edit[0], w, original_winner),
        lambda ranking, flag, promoted, _, lo, hi, w: CompromiseWitness(
            ranking, flag, promoted, lo, hi, original_winner, w
        ),
        trie,
    )


def find_spoilers(
    profile: PreferenceProfile, options: RcvOptions, max_subset_size: int = 1
) -> SpoilerScan:
    """Remove every nonempty subset of losing candidates up to the given size
    and report subsets whose removal changes the winner. The profile is
    piled once, and each subset is counted on a copy of those piles by
    ``winner_without``, which eliminates the subset before round 1."""
    original_winner = rcv_tabulate(profile, options).winner
    losers = [cid for cid in profile.roster.ids() if cid != original_winner]
    piles = _piled(profile, options)
    witnesses = []
    tie_subsets = []
    for size in range(1, min(max_subset_size, len(losers)) + 1):
        for subset in itertools.combinations(losers, size):
            try:
                winner = winner_without(piles, subset, options.tie_policy)
            except TieError:
                tie_subsets.append(subset)
                continue
            if winner != original_winner:
                witnesses.append(SpoilerWitness(subset, original_winner, winner))
    return SpoilerScan(tuple(witnesses), tuple(tie_subsets))


def verify_witness(
    profile: PreferenceProfile, witness, options: RcvOptions
) -> bool:
    """Replay the claimed edit at each end of its count range and re-tabulate;
    true iff the claimed winners match. Structurally invalid witnesses raise;
    merely wrong ones return False."""
    original = rcv_tabulate(profile, options).winner
    w, remove = witness, False
    if isinstance(w, MonotonicityWitness):
        focal = w.new_winner if w.direction is Direction.DOWNWARD else w.original_winner
        sound = (
            w.focal_candidate == focal
            and 1 <= w.min_count <= w.max_count
            and w.modified_type is not None
            and w.modified_type == _shift(w.ballot_type, focal, w.direction)
        )
        counts, modified = {w.min_count, w.max_count}, w.modified_type
    elif isinstance(w, NoShowWitness):
        sound = prefers(w.ballot_type, w.new_winner, w.original_winner) and w.count >= 1
        counts, remove = {w.count}, True
    elif isinstance(w, CompromiseWitness):
        if w.promoted_candidate not in w.ballot_type:
            raise ValidationError("promoted candidate is not ranked on the ballot type")
        if w.ballot_type[0] == w.promoted_candidate:
            raise ValidationError("promoted candidate is already first on the ballot type")
        sound = (
            prefers(w.ballot_type, w.new_winner, w.original_winner)
            and 1 <= w.count <= w.max_count
        )
        counts, modified = {w.count, w.max_count}, _promote(w.ballot_type, w.promoted_candidate)
    elif isinstance(w, SpoilerWitness):
        for cid in w.removed:
            if cid not in profile.roster:
                raise ValidationError(f"witness removes unknown candidate {cid!r}")
        sound = bool(w.removed) and original not in w.removed
    else:
        raise ValidationError(f"unknown witness type {type(w).__name__}")

    if not sound or original != w.original_winner or w.new_winner == original:
        return False
    if isinstance(w, SpoilerWitness):
        edits = [profile.remove_candidates(w.removed)]
    else:
        edits = (
            profile.remove_ballots(w.ballot_type, t, w.raw_first_invalid) if remove
            else profile.replace_ballots(w.ballot_type, modified, t, w.raw_first_invalid)
            for t in counts
        )
    for edited in edits:
        try:
            if rcv_tabulate(edited, options).winner != w.new_winner:
                return False
        except TieError:
            return False
    return True


def brute_force_oracle(
    profile: PreferenceProfile,
    options: RcvOptions | None = None,
    bounds: OracleBounds = OracleBounds(),
) -> PathologyReport:
    """Exhaustive pathology report by direct re-tabulation, for small profiles.

    Enumerates every single-type adjacent shift, removal, and promotion over
    all t, and every losing-candidate subset, using only the public profile
    edits and the full record-keeping tabulator. Every edit kind is one list
    of (ballot_type, flag, candidate, modified_type | None) handed to one
    scan.
    """
    options = options or RcvOptions()
    n_candidates = len(profile.roster.candidates)
    total = profile.total()
    if n_candidates > bounds.max_candidates or total > bounds.max_total_ballots:
        raise OracleBoundsError(
            f"profile has {n_candidates} candidates and {total} ballots; the oracle "
            f"accepts at most {bounds.max_candidates} candidates and "
            f"{bounds.max_total_ballots} ballots (it exists to cross-check the "
            "searches on small instances)"
        )
    original_winner = rcv_tabulate(profile, options).winner
    keys = sorted(profile.entries)
    losers = [cid for cid in profile.roster.ids() if cid != original_winner]

    def outcome_of(edited: PreferenceProfile):
        try:
            return ("win", rcv_tabulate(edited, options).winner)
        except TieError as exc:
            return ("tie", exc.tied)
        except ValidationError:
            return ("invalid", None)

    def scan(edit_name: str, edits: list, qualifies, witness) -> EditScan:
        """Tabulate every t of every edit and cut the outcomes into maximal
        runs of one outcome: a tie run is a boundary at its first t, and a
        run of a winner that qualifies is a witness (only the first, for a
        removal). qualifies gets (ballot_type, candidate, winner); witness
        gets the edit's four fields, the run's first and last t, and the
        winner."""
        found, ties = [], []
        for edit in edits:
            ranking, flag, candidate, modified = edit
            per_t = (
                (t, outcome_of(
                    profile.remove_ballots(ranking, t, flag) if modified is None
                    else profile.replace_ballots(ranking, modified, t, flag)
                ))
                for t in range(1, profile.entries[(ranking, flag)] + 1)
            )
            runs = []
            for (kind, value), run in itertools.groupby(per_t, key=lambda pair: pair[1]):
                ts = [t for t, _ in run]
                if kind == "tie":
                    ties.append(TieBoundary(edit_name, ranking, flag, candidate, ts[0], value))
                elif kind == "win" and qualifies(ranking, candidate, value):
                    runs.append(witness(*edit, ts[0], ts[-1], value))
            found.extend(runs[:1] if modified is None else runs)
        return EditScan(tuple(found), tuple(ties))

    def monotonicity(direction: Direction, focals: list[str], edit_name: str, qualifies):
        step = 1 if direction is Direction.DOWNWARD else -1
        edits = []
        for focal in focals:
            for ranking, flag in keys:
                if focal in ranking and 0 <= ranking.index(focal) + step < len(ranking):
                    i = ranking.index(focal)
                    swapped = list(ranking)
                    swapped[i], swapped[i + step] = swapped[i + step], swapped[i]
                    edits.append((ranking, flag, focal, tuple(swapped)))
        return scan(
            edit_name, edits, qualifies,
            lambda ranking, flag, focal, modified, lo, hi, w: MonotonicityWitness(
                direction, focal, ranking, flag, modified, lo, hi, original_winner, w
            ),
        )

    spoiler_wits = []
    spoiler_ties = []
    for size in range(1, len(losers) + 1):
        for subset in itertools.combinations(losers, size):
            try:
                result = rcv_tabulate(profile.remove_candidates(subset), options)
            except TieError:
                spoiler_ties.append(subset)
                continue
            except ValidationError:
                continue
            if result.winner != original_winner:
                spoiler_wits.append(SpoilerWitness(subset, original_winner, result.winner))

    removals = [(ranking, flag, None, None) for ranking, flag in keys]
    promotions = [
        (ranking, flag, promoted, (promoted,) + tuple(c for c in ranking if c != promoted))
        for ranking, flag in keys
        for promoted in ranking[1:]
    ]
    preferred = lambda ranking, _, w: prefers(ranking, w, original_winner)
    return PathologyReport(
        SpoilerScan(tuple(spoiler_wits), tuple(spoiler_ties)),
        monotonicity(Direction.DOWNWARD, losers, "shift-down", lambda _, focal, w: w == focal),
        monotonicity(
            Direction.UPWARD, [original_winner], "shift-up", lambda _, focal, w: w != focal
        ),
        scan(
            "remove", removals, preferred,
            lambda ranking, flag, _, __, lo, hi, w: NoShowWitness(
                ranking, flag, lo, original_winner, w
            ),
        ),
        scan(
            "promote", promotions, preferred,
            lambda ranking, flag, promoted, _, lo, hi, w: CompromiseWitness(
                ranking, flag, promoted, lo, hi, original_winner, w
            ),
        ),
    )
