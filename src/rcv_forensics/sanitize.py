"""Ballot sanitization under configurable jurisdiction policies.

Three real rule sets are provided as presets:

* ``ALAMEDA``: every skipped rank is ignored (candidates shift up); an
  overvote ends the ballot, discarding the overvoted and all later ranks.
* ``MINNEAPOLIS``: skips ignored; an overvote is treated like a skipped rank.
* ``ALASKA``: two consecutive skipped ranks end the ballot; overvotes truncate.

Duplicate candidates never terminate a ballot anywhere: a candidate already
accepted is simply ignored when met again. Every raw ballot sanitizes, in the
worst case to an empty ranking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .cvr import CandidateRoster, RawBallot, _jsonl_line
from .profiles import PreferenceProfile, ProfileKey


class SkipPolicy(enum.Enum):
    IGNORE_ALL = "ignore-all"
    TWO_CONSECUTIVE_TERMINATE = "two-consecutive-terminate"


class OvervotePolicy(enum.Enum):
    TRUNCATE = "truncate"
    SKIP = "skip"


@dataclass(frozen=True)
class SanitizePolicy:
    """Skip and overvote handling; duplicates always keep the first occurrence."""

    skip_policy: SkipPolicy
    overvote_policy: OvervotePolicy


ALAMEDA = SanitizePolicy(SkipPolicy.IGNORE_ALL, OvervotePolicy.TRUNCATE)
MINNEAPOLIS = SanitizePolicy(SkipPolicy.IGNORE_ALL, OvervotePolicy.SKIP)
ALASKA = SanitizePolicy(SkipPolicy.TWO_CONSECUTIVE_TERMINATE, OvervotePolicy.TRUNCATE)

POLICY_PRESETS: dict[str, SanitizePolicy] = {
    "alameda": ALAMEDA,
    "minneapolis": MINNEAPOLIS,
    "alaska": ALASKA,
}


@dataclass(frozen=True)
class CleanBallot:
    """A strict, gap-free, duplicate-free ranking.

    ``raw_first_invalid`` is true iff the as-cast first slot was empty or held
    only write-in candidates; it is the property the miscounting tabulator
    keyed on, so it must survive sanitization.
    """

    ballot_id: str
    ranking: tuple[str, ...]
    raw_first_invalid: bool


@dataclass(frozen=True)
class SanitizeStats:
    """Per-ballot counts (a ballot with two overvotes increments once)."""

    total: int
    ballots_with_overvote: int
    ballots_skipped_then_ranked: int
    invalid_first_with_official: int


def sanitize_ballot(
    raw: RawBallot, policy: SanitizePolicy, roster: CandidateRoster
) -> CleanBallot:
    """Deterministic left-to-right scan of the raw slots under the policy."""
    writeins = roster.writein_ids()
    ranking: list[str] = []
    consecutive_skips = 0
    for slot in raw.slots:
        is_skip = len(slot) == 0 or (
            len(slot) > 1 and policy.overvote_policy is OvervotePolicy.SKIP
        )
        if is_skip:
            consecutive_skips += 1
            if (
                policy.skip_policy is SkipPolicy.TWO_CONSECUTIVE_TERMINATE
                and consecutive_skips >= 2
            ):
                break
            continue
        if len(slot) > 1:
            break  # overvote under the truncate policy: keep only what came before
        consecutive_skips = 0
        candidate = slot[0]
        if candidate not in ranking:
            ranking.append(candidate)
    # an empty first slot is invalid too: all() of nothing is true
    raw_first_invalid = all(c in writeins for c in raw.slots[0])
    return CleanBallot(raw.ballot_id, tuple(ranking), raw_first_invalid)


def _skipped_then_ranked(raw: RawBallot) -> bool:
    seen_skip = False
    for slot in raw.slots:
        if len(slot) == 0:
            seen_skip = True
        elif seen_skip:
            return True
    return False


def sanitize_stats(
    pairs: Iterable[tuple[RawBallot, CleanBallot]], roster: CandidateRoster
) -> SanitizeStats:
    """Statistics of raw ballots paired with their sanitized forms, streaming."""
    officials = set(roster.official_ids())
    total = overvote = skipped = invalid_first = 0
    for raw, clean in pairs:
        total += 1
        if any(len(slot) > 1 for slot in raw.slots):
            overvote += 1
        if _skipped_then_ranked(raw):
            skipped += 1
        if clean.raw_first_invalid and any(c in officials for c in clean.ranking):
            invalid_first += 1
    return SanitizeStats(total, overvote, skipped, invalid_first)


def sanitize_all(
    ballots: Sequence[RawBallot], policy: SanitizePolicy, roster: CandidateRoster
) -> tuple[PreferenceProfile, SanitizeStats]:
    """Sanitize every ballot, aggregate into a profile, and report statistics,
    without holding the sanitized ballots.

    No ballot is dropped: the aggregated total always equals the input count.
    """
    counts: dict[ProfileKey, int] = {}

    def cleaned():
        for raw in ballots:
            clean = sanitize_ballot(raw, policy, roster)
            key = (clean.ranking, clean.raw_first_invalid)
            counts[key] = counts.get(key, 0) + 1
            yield raw, clean

    stats = sanitize_stats(cleaned(), roster)
    return PreferenceProfile(roster, counts), stats


def sanitize_ballots(
    ballots: Sequence[RawBallot], policy: SanitizePolicy, roster: CandidateRoster
) -> list[CleanBallot]:
    return [sanitize_ballot(b, policy, roster) for b in ballots]


def emit_clean_cvr(ballots: Iterable[CleanBallot], sink: IO[str]) -> None:
    """Write cleaned ballots in the line-oriented CVR format (singleton slots)."""
    for ballot in ballots:
        doc = {
            "ballot_id": ballot.ballot_id,
            "ranks": [[c] for c in ballot.ranking],
            "raw_first_invalid": ballot.raw_first_invalid,
        }
        sink.write(_jsonl_line(doc))
