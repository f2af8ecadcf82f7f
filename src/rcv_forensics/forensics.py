"""Automated detection of election pathologies, each returned as a replayable
witness: spoiler effects, downward and upward monotonicity paradoxes, no-show
paradoxes, and compromise-vote failures.

The monotonicity, no-show and compromise searches only build their edits
(move t ballots of one existing type to a modified type, or delete them) and
hand them to one engine, ``_scan``, which re-tabulates every t and cuts the
outcomes into witness runs and tie boundaries. Searches scan only ballot types
already present in the profile and only single-position (adjacent) shifts.
The t-scan is linear because the winner as a function of t need not be
monotone across elimination-order changes. Consecutive t values with the same
new winner merge into one witness; a t whose re-tabulation hits an
elimination tie is never a witness and is reported separately as a boundary.

``brute_force_oracle`` re-derives every report by plain enumeration over the
public profile edits and full tabulation, for small instances only; it exists
to pin the searches down, so it deliberately shares none of their scan code.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .cvr import ValidationError
from .methods import RcvOptions, TieError, _entries_of, rcv_tabulate, rcv_winner
from .profiles import PreferenceProfile, Ranking


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
class MonotonicityScan:
    direction: Direction
    witnesses: tuple[MonotonicityWitness, ...]
    boundaries: tuple[TieBoundary, ...]


@dataclass(frozen=True)
class NoShowScan:
    witnesses: tuple[NoShowWitness, ...]
    boundaries: tuple[TieBoundary, ...]


@dataclass(frozen=True)
class CompromiseScan:
    witnesses: tuple[CompromiseWitness, ...]
    boundaries: tuple[TieBoundary, ...]


@dataclass(frozen=True)
class SpoilerScan:
    witnesses: tuple[SpoilerWitness, ...]
    tie_subsets: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class PathologyReport:
    spoilers: SpoilerScan
    downward: MonotonicityScan
    upward: MonotonicityScan
    noshow: NoShowScan
    compromise: CompromiseScan


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
) -> tuple[list[list[list]], tuple[TieBoundary, ...]]:
    """The t-scan behind every edit search. For each edit and every t in
    1..count(ballot_type), move t ballots of the type to modified_type (or
    delete them when it is None) and re-tabulate. Returns, per edit, the
    maximal runs [lo, hi, winner] of consecutive t with a constant winner that
    qualifies for the edit, and the first t of each maximal run of identical
    elimination ties as a boundary, both in edit order."""
    roster = profile.roster
    entries = _entries_of(profile)
    all_runs: list[list[list]] = []
    boundaries: list[TieBoundary] = []
    for edit in edits:
        ranking, flag, candidate, modified = edit
        rows = {(r, f): [r, f, c] for r, f, c in entries}
        src = rows[(ranking, flag)]
        dst = None if modified is None else rows.setdefault((modified, flag), [modified, flag, 0])
        work = list(rows.values())
        runs: list[list] = []
        previous = None
        for t in range(1, src[2] + 1):
            src[2] -= 1
            if dst is not None:
                dst[2] += 1
            try:  # rows at count 0 add nothing to any tally
                outcome = ("win", rcv_winner(roster, work, options))
            except TieError as exc:
                outcome = ("tie", exc.tied)
            except ValidationError:
                # removal emptied the profile; no election outcome exists for this t
                outcome = ("invalid",)
            if outcome[0] == "win" and qualifies(edit, outcome[1]):
                if outcome == previous:
                    runs[-1][1] = t
                else:
                    runs.append([t, t, outcome[1]])
            elif outcome[0] == "tie" and outcome != previous:
                boundaries.append(
                    TieBoundary(edit_name, ranking, flag, candidate, t, outcome[1])
                )
            previous = outcome
        all_runs.append(runs)
    return all_runs, tuple(boundaries)


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
    profile: PreferenceProfile, options: RcvOptions, direction: Direction
) -> MonotonicityScan:
    """Downward: shift each losing candidate one position down on each ballot
    type ranking it above last place; a run of t where that candidate wins is
    a witness. Upward: shift the winner one position up where ranked below
    first; a run of t where the winner loses is a witness."""
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

    runs, boundaries = _scan(profile, options, edit_name, edits, qualifies)
    witnesses = tuple(
        MonotonicityWitness(
            direction, focal, ranking, flag, modified, lo, hi, original_winner, w
        )
        for (ranking, flag, focal, modified), edit_runs in zip(edits, runs)
        for lo, hi, w in edit_runs
    )
    return MonotonicityScan(direction, witnesses, boundaries)


def search_noshow(profile: PreferenceProfile, options: RcvOptions) -> NoShowScan:
    """Remove t ballots of each type; the minimal t whose new winner the type
    strictly prefers to the original winner is a witness."""
    original_winner = rcv_tabulate(profile, options).winner
    edits = [(ranking, flag, None, None) for ranking, flag in sorted(profile.entries)]
    runs, boundaries = _scan(
        profile, options, "remove", edits,
        lambda edit, w: prefers(edit[0], w, original_winner),
    )
    witnesses = tuple(
        NoShowWitness(ranking, flag, edit_runs[0][0], original_winner, edit_runs[0][2])
        for (ranking, flag, _, _), edit_runs in zip(edits, runs)
        if edit_runs
    )
    return NoShowScan(witnesses, boundaries)


def _promote(ranking: Ranking, candidate: str) -> Ranking:
    return (candidate,) + tuple(cid for cid in ranking if cid != candidate)


def search_compromise(profile: PreferenceProfile, options: RcvOptions) -> CompromiseScan:
    """Move each non-first candidate to first on t ballots of each type; runs
    of t whose new winner the type strictly prefers to the original winner are
    witnesses (one per constant-winner run, count = the run's minimum)."""
    original_winner = rcv_tabulate(profile, options).winner
    edits = [
        (ranking, flag, promoted, _promote(ranking, promoted))
        for ranking, flag in sorted(profile.entries)
        for promoted in ranking[1:]
    ]
    runs, boundaries = _scan(
        profile, options, "promote", edits,
        lambda edit, w: prefers(edit[0], w, original_winner),
    )
    witnesses = tuple(
        CompromiseWitness(ranking, flag, promoted, lo, hi, original_winner, w)
        for (ranking, flag, promoted, _), edit_runs in zip(edits, runs)
        for lo, hi, w in edit_runs
    )
    return CompromiseScan(witnesses, boundaries)


def find_spoilers(
    profile: PreferenceProfile, options: RcvOptions, max_subset_size: int = 1
) -> SpoilerScan:
    """Remove every nonempty subset of losing candidates up to the given size
    and report subsets whose removal changes the winner."""
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
    return SpoilerScan(tuple(witnesses), tuple(tie_subsets))


def verify_witness(
    profile: PreferenceProfile, witness, options: RcvOptions
) -> bool:
    """Replay the claimed edit at each end of its count range and re-tabulate;
    true iff the claimed winners match. Structurally invalid witnesses raise;
    merely wrong ones return False."""
    original = rcv_tabulate(profile, options).winner
    w = witness
    if isinstance(w, MonotonicityWitness):
        focal = w.new_winner if w.direction is Direction.DOWNWARD else w.original_winner
        sound = (
            w.focal_candidate == focal
            and 1 <= w.min_count <= w.max_count
            and w.modified_type == _shift(w.ballot_type, focal, w.direction)
        )
        counts = {w.min_count, w.max_count}
        edit = lambda t: profile.replace_ballots(
            w.ballot_type, w.modified_type, t, w.raw_first_invalid
        )
    elif isinstance(w, NoShowWitness):
        sound = prefers(w.ballot_type, w.new_winner, w.original_winner) and w.count >= 1
        counts = {w.count}
        edit = lambda t: profile.remove_ballots(w.ballot_type, t, w.raw_first_invalid)
    elif isinstance(w, CompromiseWitness):
        if w.promoted_candidate not in w.ballot_type:
            raise ValidationError("promoted candidate is not ranked on the ballot type")
        if w.ballot_type[0] == w.promoted_candidate:
            raise ValidationError("promoted candidate is already first on the ballot type")
        sound = (
            prefers(w.ballot_type, w.new_winner, w.original_winner)
            and 1 <= w.count <= w.max_count
        )
        counts = {w.count, w.max_count}
        modified = _promote(w.ballot_type, w.promoted_candidate)
        edit = lambda t: profile.replace_ballots(
            w.ballot_type, modified, t, w.raw_first_invalid
        )
    elif isinstance(w, SpoilerWitness):
        for cid in w.removed:
            if cid not in profile.roster:
                raise ValidationError(f"witness removes unknown candidate {cid!r}")
        sound = bool(w.removed) and original not in w.removed
        counts = {0}
        edit = lambda _: profile.remove_candidates(w.removed)
    else:
        raise ValidationError(f"unknown witness type {type(w).__name__}")

    if not sound or original != w.original_winner or w.new_winner == original:
        return False
    for t in counts:
        try:
            if rcv_tabulate(edit(t), options).winner != w.new_winner:
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
    edits and the full record-keeping tabulator.
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
    roster_ids = profile.roster.ids()
    keys = sorted(profile.entries)

    def outcome_of(edited: PreferenceProfile):
        try:
            return ("win", rcv_tabulate(edited, options).winner)
        except TieError as exc:
            return ("tie", exc.tied)
        except ValidationError:
            return ("invalid",)

    def runs_and_ties(per_t, qualifies):
        witnesses_lo_hi = []
        ties = []
        idx = 0
        while idx < len(per_t):
            t, outcome = per_t[idx]
            if outcome[0] == "tie":
                tied = outcome[1]
                ties.append((t, tied))
                while idx < len(per_t) and per_t[idx][1] == ("tie", tied):
                    idx += 1
                continue
            if outcome[0] != "win":
                idx += 1
                continue
            winner = outcome[1]
            if not qualifies(winner):
                idx += 1
                continue
            lo = t
            hi = t
            idx += 1
            while idx < len(per_t) and per_t[idx][1] == ("win", winner):
                hi = per_t[idx][0]
                idx += 1
            witnesses_lo_hi.append((lo, hi, winner))
        return witnesses_lo_hi, ties

    # spoilers: every subset of losing candidates
    losers = [cid for cid in roster_ids if cid != original_winner]
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
                spoiler_wits.append(
                    SpoilerWitness(subset, original_winner, result.winner)
                )
    spoilers = SpoilerScan(tuple(spoiler_wits), tuple(spoiler_ties))

    def monotonicity(direction: Direction) -> MonotonicityScan:
        if direction is Direction.DOWNWARD:
            focals = [cid for cid in roster_ids if cid != original_winner]
            edit_name = "shift-down"
            shift = "down"
        else:
            focals = [original_winner]
            edit_name = "shift-up"
            shift = "up"
        wits = []
        ties = []
        for focal in focals:
            for ranking, flag in keys:
                if focal not in ranking:
                    continue
                i = ranking.index(focal)
                if direction is Direction.DOWNWARD and i == len(ranking) - 1:
                    continue
                if direction is Direction.UPWARD and i == 0:
                    continue
                j = i + 1 if direction is Direction.DOWNWARD else i - 1
                modified = list(ranking)
                modified[i], modified[j] = modified[j], modified[i]
                modified = tuple(modified)
                per_t = []
                for t in range(1, profile.entries[(ranking, flag)] + 1):
                    edited = profile.shift_candidate(ranking, focal, shift, t, flag)
                    per_t.append((t, outcome_of(edited)))
                if direction is Direction.DOWNWARD:
                    qualifies = lambda w: w == focal
                else:
                    qualifies = lambda w: w != focal
                found, tie_ts = runs_and_ties(per_t, qualifies)
                wits.extend(
                    MonotonicityWitness(
                        direction, focal, ranking, flag, modified, lo, hi,
                        original_winner, w,
                    )
                    for lo, hi, w in found
                )
                ties.extend(
                    TieBoundary(edit_name, ranking, flag, focal, t, tied)
                    for t, tied in tie_ts
                )
        return MonotonicityScan(direction, tuple(wits), tuple(ties))

    downward = monotonicity(Direction.DOWNWARD)
    upward = monotonicity(Direction.UPWARD)

    noshow_wits = []
    noshow_ties = []
    for ranking, flag in keys:
        per_t = []
        for t in range(1, profile.entries[(ranking, flag)] + 1):
            per_t.append((t, outcome_of(profile.remove_ballots(ranking, t, flag))))
        found = None
        for t, outcome in per_t:
            if (
                outcome[0] == "win"
                and outcome[1] != original_winner
                and prefers(ranking, outcome[1], original_winner)
            ):
                found = NoShowWitness(ranking, flag, t, original_winner, outcome[1])
                break
        if found:
            noshow_wits.append(found)
        _, tie_ts = runs_and_ties(per_t, lambda w: False)
        noshow_ties.extend(
            TieBoundary("remove", ranking, flag, None, t, tied) for t, tied in tie_ts
        )
    noshow = NoShowScan(tuple(noshow_wits), tuple(noshow_ties))

    comp_wits = []
    comp_ties = []
    for ranking, flag in keys:
        if len(ranking) < 2:
            continue
        for promoted in ranking[1:]:
            modified = (promoted,) + tuple(c for c in ranking if c != promoted)
            per_t = []
            for t in range(1, profile.entries[(ranking, flag)] + 1):
                edited = profile.replace_ballots(ranking, modified, t, flag)
                per_t.append((t, outcome_of(edited)))
            qualifies = lambda w: w != original_winner and prefers(
                ranking, w, original_winner
            )
            found, tie_ts = runs_and_ties(per_t, qualifies)
            comp_wits.extend(
                CompromiseWitness(ranking, flag, promoted, lo, hi, original_winner, w)
                for lo, hi, w in found
            )
            comp_ties.extend(
                TieBoundary("promote", ranking, flag, promoted, t, tied)
                for t, tied in tie_ts
            )
    compromise = CompromiseScan(tuple(comp_wits), tuple(comp_ties))

    return PathologyReport(spoilers, downward, upward, noshow, compromise)
