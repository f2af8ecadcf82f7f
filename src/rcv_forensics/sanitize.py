"""Ballot sanitization under configurable jurisdiction policies.

Three real rule sets are provided as presets:

* ``ALAMEDA``: every skipped rank is ignored (candidates shift up); an
  overvote ends the ballot, discarding the overvoted and all later ranks.
* ``MINNEAPOLIS``: skips ignored; an overvote is treated like a skipped rank.
* ``ALASKA``: two consecutive skipped ranks end the ballot; overvotes truncate.

Duplicate candidates never terminate a ballot anywhere: a candidate already
accepted is simply ignored when met again. Every raw ballot sanitizes, in the
worst case to an empty ranking.

A ballot table (``RawBallots``) is sanitized once per pattern, by ``_clean``:
``sanitize_ballots`` gives one ``(ranking, flag)`` profile key per kind, and
the statistics, the profile and the clean CVR are built from those keys and
the table's ``ids``, ``kinds`` and ``patterns``, with no ballot object built.
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


def _clean(
    slots: tuple, stated: bool | None, policy: SanitizePolicy, writeins: frozenset[str]
) -> ProfileKey:
    """The sanitized ranking and flag of raw slots (a deterministic left-to-
    right scan under the policy); ``stated`` is the CVR's flag, or None."""
    skip_overvotes = policy.overvote_policy is OvervotePolicy.SKIP
    two_skips_end = policy.skip_policy is SkipPolicy.TWO_CONSECUTIVE_TERMINATE
    ranking: list[str] = []
    consecutive_skips = 0
    for slot in slots:
        if not slot or (skip_overvotes and len(slot) > 1):
            consecutive_skips += 1
            if two_skips_end and consecutive_skips >= 2:
                break
            continue
        if len(slot) > 1:
            break  # overvote under the truncate policy: keep only what came before
        consecutive_skips = 0
        candidate = slot[0]
        if candidate not in ranking:
            ranking.append(candidate)
    # a stated flag wins; else an empty or absent first slot is invalid: all() of nothing
    if stated is None:
        stated = not slots or all(map(writeins.__contains__, slots[0]))
    return tuple(ranking), stated


def sanitize_ballot(
    raw: RawBallot, policy: SanitizePolicy, roster: CandidateRoster
) -> CleanBallot:
    """One raw ballot's clean form (``_clean``) under its own ``ballot_id``."""
    writeins = roster.writein_ids()
    return CleanBallot(raw.ballot_id, *_clean(raw.slots, raw.raw_first_invalid, policy, writeins))


def sanitize_ballots(
    table: RawBallots, policy: SanitizePolicy, roster: CandidateRoster
) -> list[tuple[ProfileKey, int]]:
    """The clean forms of a ballot table, indexed by kind: each pattern's
    sanitized ``(ranking, flag)``, with the pattern's ballot count. These
    depend on nothing but the pattern, so ``_clean`` runs once per pattern."""
    writeins = roster.writein_ids()
    counts = Counter(table.kinds)
    return [
        (_clean(slots, stated, policy, writeins), counts[kind])
        for kind, (slots, stated) in enumerate(table.patterns)
    ]


def sanitize_stats(
    table: RawBallots, forms: list[tuple[ProfileKey, int]], roster: CandidateRoster
) -> SanitizeStats:
    """Statistics of a ballot table from its clean forms (``sanitize_ballots``):
    each pattern is tested once and counts once for every ballot that has it.
    A pattern has an overvote when its longest slot holds two or more ids, and
    counts as an invalid first rank followed by an official when its flag is
    set and its ranking meets the roster's officials."""
    officials = set(roster.official_ids())
    total = overvote = skipped = invalid_first = 0
    for (slots, _), ((ranking, flag), n) in zip(table.patterns, forms):
        total += n
        if max(map(len, slots), default=0) > 1:
            overvote += n
        if () in slots and any(slots[slots.index(()) :]):  # ranked after the first skip
            skipped += n
        if flag and not officials.isdisjoint(ranking):
            invalid_first += n
    return SanitizeStats(total, overvote, skipped, invalid_first)


def sanitize_all(
    ballots: Iterable[RawBallot], policy: SanitizePolicy, roster: CandidateRoster
) -> tuple[PreferenceProfile, SanitizeStats]:
    """Sanitize every ballot, aggregate into a profile, and report statistics.

    The work is done once per pattern of the ballots' table (``RawBallots.of``)
    and weighted by its ballot count; the profile lists its entries in the
    order their first ballots appear. No ballot is dropped: the aggregated
    total always equals the input count.
    """
    table = RawBallots.of(ballots)
    forms = sanitize_ballots(table, policy, roster)
    counts: dict[ProfileKey, int] = {}
    for key, n in forms:
        counts[key] = counts.get(key, 0) + n
    return PreferenceProfile(roster, counts), sanitize_stats(table, forms, roster)


def emit_clean_cvr(
    table: RawBallots, forms: list[tuple[ProfileKey, int]], sink: IO[str]
) -> None:
    """Write a ballot table's sanitized ballots as CVR lines of singleton
    slots, with their flag, from each ballot's id and kind and the clean
    forms (``sanitize_ballots``): one line tail is encoded per distinct
    ranking and flag, and no ballot object is built."""
    keys = [key for key, _ in forms]
    encoded = {key: cvr_tail([(c,) for c in key[0]], key[1]) for key in dict.fromkeys(keys)}
    tails = [encoded[key] for key in keys]
    sink.writelines(map(cvr_line, table.ids, map(tails.__getitem__, table.kinds)))
