"""Ballot sanitization under configurable jurisdiction policies.

Three real rule sets are provided as presets:

* ``ALAMEDA``: every skipped rank is ignored (candidates shift up); an
  overvote ends the ballot, discarding the overvoted and all later ranks.
* ``MINNEAPOLIS``: skips ignored; an overvote is treated like a skipped rank.
* ``ALASKA``: two consecutive skipped ranks end the ballot; overvotes truncate.

Duplicate candidates never terminate a ballot anywhere: a candidate already
accepted is simply ignored when met again. Every raw ballot sanitizes, in the
worst case to an empty ranking.

A ballot table (``RawBallots``) is sanitized once per pattern:
``sanitize_ballots`` gives one clean form per kind, and the statistics, the
profile and the clean CVR are built from those forms and the table's ``ids``,
``kinds`` and ``patterns``.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable

from .cvr import CandidateRoster, RawBallot, RawBallots, cvr_line, cvr_tail
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
    # a stated flag wins; else an empty or absent first slot is invalid: all() of nothing
    raw_first_invalid = raw.raw_first_invalid
    if raw_first_invalid is None:
        raw_first_invalid = all(c in writeins for slot in raw.slots[:1] for c in slot)
    return CleanBallot(raw.ballot_id, tuple(ranking), raw_first_invalid)


def _skipped_then_ranked(slots: tuple[tuple[str, ...], ...]) -> bool:
    """A ranked slot somewhere after the first skipped one."""
    return () in slots and any(slots[slots.index(()) + 1 :])


def sanitize_ballots(
    table: RawBallots, policy: SanitizePolicy, roster: CandidateRoster
) -> list[tuple[CleanBallot, int]]:
    """The clean forms of a ballot table, indexed by kind: the sanitized form
    of each pattern's first ballot, with the pattern's ballot count.

    A ballot's sanitized ranking and flag depend on nothing but its pattern,
    so ``sanitize_ballot`` runs once per pattern, and a ballot's clean form is
    that of its kind under its own ``ballot_id``.
    """
    counts = Counter(table.kinds)
    return [
        (sanitize_ballot(table[first], policy, roster), counts[kind])
        for kind, (_, _, first) in enumerate(table.patterns)
    ]


def sanitize_stats(
    table: RawBallots, forms: list[tuple[CleanBallot, int]], roster: CandidateRoster
) -> SanitizeStats:
    """Statistics of a ballot table from its clean forms: each pattern is
    tested once and counts once for every ballot that has it."""
    officials = set(roster.official_ids())
    total = overvote = skipped = invalid_first = 0
    for (slots, _, _), (clean, n) in zip(table.patterns, forms):
        total += n
        if any(len(slot) > 1 for slot in slots):
            overvote += n
        if _skipped_then_ranked(slots):
            skipped += n
        if clean.raw_first_invalid and any(c in officials for c in clean.ranking):
            invalid_first += n
    return SanitizeStats(total, overvote, skipped, invalid_first)


def sanitize_all(
    ballots: Iterable[RawBallot], policy: SanitizePolicy, roster: CandidateRoster
) -> tuple[PreferenceProfile, SanitizeStats]:
    """Sanitize every ballot, aggregate into a profile, and report statistics,
    without holding the sanitized ballots.

    The work is done once per pattern of the ballots' table
    (``RawBallots.of``) and weighted by the pattern's ballot count; the
    patterns keep the order of their first ballots, so the profile lists its
    entries in the order their first ballots appear. No ballot is dropped: the
    aggregated total always equals the input count.
    """
    table = RawBallots.of(ballots)
    forms = sanitize_ballots(table, policy, roster)
    counts: dict[ProfileKey, int] = {}
    for clean, n in forms:
        key = (clean.ranking, clean.raw_first_invalid)
        counts[key] = counts.get(key, 0) + n
    return PreferenceProfile(roster, counts), sanitize_stats(table, forms, roster)


def emit_clean_cvr(
    table: RawBallots, forms: list[tuple[CleanBallot, int]], sink: IO[str]
) -> None:
    """Write a ballot table's sanitized ballots as CVR lines of singleton
    slots, with their flag, from each ballot's id and kind: one line tail is
    encoded per distinct ranking and flag, and no ballot object is built."""
    encoded: dict[ProfileKey, str] = {}
    tails = []
    for form, _ in forms:
        key = (form.ranking, form.raw_first_invalid)
        if key not in encoded:
            encoded[key] = cvr_tail([(c,) for c in form.ranking], form.raw_first_invalid)
        tails.append(encoded[key])
    sink.writelines(map(cvr_line, table.ids, map(tails.__getitem__, table.kinds)))
