"""Preference profiles and the ballot edits every method and audit is built on.

A profile is a multiset of cleaned ballots over a roster, keyed by
``(ranking, raw_first_invalid)``. The flag records whether the as-cast first
rank held no valid (official) candidate; keying on it lets buggy-mode
tabulation survive every edit, and edits never alter it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cvr import CandidateRoster, ValidationError, _boolean, _decode_roster, roster_to_json_dict

Ranking = tuple[str, ...]
ProfileKey = tuple[Ranking, bool]


@dataclass(frozen=True)
class PairwiseMatrix:
    """Head-to-head counts: n(x, y) = ballots ranking x above y.

    Unranked candidates sit below every ranked candidate; ballots ranking
    neither of a pair count for neither side.
    """

    candidates: tuple[str, ...]
    counts: dict[tuple[str, str], int]

    def n(self, x: str, y: str) -> int:
        return self.counts[(x, y)]


@dataclass(frozen=True)
class PreferenceProfile:
    roster: CandidateRoster
    entries: dict[ProfileKey, int]

    def __post_init__(self) -> None:
        normalized: dict[ProfileKey, int] = {}
        for (ranking, flag), count in self.entries.items():
            ranking = tuple(ranking)
            if not isinstance(count, int) or count <= 0:
                raise ValidationError(f"entry count for {ranking} must be a positive integer")
            if len(set(ranking)) != len(ranking):
                raise ValidationError(f"ranking {ranking} contains a duplicate candidate")
            for cid in ranking:
                if cid not in self.roster:
                    raise ValidationError(f"ranking references unknown candidate {cid!r}")
            normalized[(ranking, bool(flag))] = normalized.get((ranking, bool(flag)), 0) + count
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def from_counts(
        cls,
        roster: CandidateRoster,
        counts: Mapping[Sequence[str], int],
        raw_first_invalid: bool = False,
    ) -> "PreferenceProfile":
        return cls(roster, {(tuple(r), raw_first_invalid): c for r, c in counts.items()})

    def total(self) -> int:
        return sum(self.entries.values())

    def count(self, ballot_type: Sequence[str], raw_first_invalid: bool = False) -> int:
        return self.entries.get((tuple(ballot_type), raw_first_invalid), 0)

    def first_place_tally(self) -> dict[str, int]:
        """Ballots by first-ranked candidate; empty rankings excluded, flags ignored."""
        tally = {cid: 0 for cid in self.roster.ids()}
        for (ranking, _), count in self.entries.items():
            if ranking:
                tally[ranking[0]] += count
        return tally

    def pairwise_matrix(self) -> PairwiseMatrix:
        ids = self.roster.ids()
        counts = {(x, y): 0 for x in ids for y in ids if x != y}
        for (ranking, _), count in self.entries.items():
            ranked = set(ranking)
            for i, x in enumerate(ranking):
                for y in ranking[i + 1 :]:
                    counts[(x, y)] += count
                for y in ids:
                    if y not in ranked:
                        counts[(x, y)] += count
        return PairwiseMatrix(ids, counts)

    def remove_candidates(self, doomed: Iterable[str]) -> "PreferenceProfile":
        """Delete candidates from the roster and every ranking, preserving order.

        Entries that collapse to the same ranking merge; totals are conserved.
        Removing every candidate yields a valid profile of empty rankings.
        """
        doomed = frozenset(doomed)
        for cid in doomed:
            if cid not in self.roster:
                raise ValidationError(f"cannot remove unknown candidate {cid!r}")
        new_roster = CandidateRoster(
            tuple(c for c in self.roster.candidates if c.id not in doomed)
        )
        merged: dict[ProfileKey, int] = {}
        for (ranking, flag), count in self.entries.items():
            key = (tuple(c for c in ranking if c not in doomed), flag)
            merged[key] = merged.get(key, 0) + count
        return PreferenceProfile(new_roster, merged)

    def replace_ballots(
        self,
        from_type: Sequence[str],
        to_type: Sequence[str],
        count: int,
        raw_first_invalid: bool = False,
    ) -> "PreferenceProfile":
        """Move ``count`` ballots between ranking types within one flag bucket."""
        return self._move(
            (tuple(from_type), raw_first_invalid), count, (tuple(to_type), raw_first_invalid)
        )

    def shift_candidate(
        self,
        ballot_type: Sequence[str],
        candidate: str,
        direction: str,
        count: int,
        raw_first_invalid: bool = False,
    ) -> "PreferenceProfile":
        """Swap a candidate one adjacent position up or down on ``count`` ballots."""
        ranking = tuple(ballot_type)
        if candidate not in ranking:
            raise ValidationError(f"candidate {candidate!r} not ranked on {ranking}")
        i = ranking.index(candidate)
        if direction == "up":
            if i == 0:
                raise ValidationError(f"{candidate!r} is already first on {ranking}")
            j = i - 1
        elif direction == "down":
            if i == len(ranking) - 1:
                raise ValidationError(f"{candidate!r} is already last on {ranking}")
            j = i + 1
        else:
            raise ValidationError(f"direction must be 'up' or 'down', got {direction!r}")
        modified = list(ranking)
        modified[i], modified[j] = modified[j], modified[i]
        return self.replace_ballots(ranking, tuple(modified), count, raw_first_invalid)

    def remove_ballots(
        self,
        ballot_type: Sequence[str],
        count: int,
        raw_first_invalid: bool = False,
    ) -> "PreferenceProfile":
        """Delete ``count`` ballots of one type; the only edit that changes the total."""
        return self._move((tuple(ballot_type), raw_first_invalid), count, None)

    def _move(self, src: ProfileKey, count: int, dst: ProfileKey | None) -> "PreferenceProfile":
        """``count`` ballots of src moved to dst, or deleted when dst is None."""
        if count < 0:
            raise ValidationError("count must be non-negative")
        if count == 0 or src == dst:
            return self
        available = self.entries.get(src, 0)
        if count > available:
            raise ValidationError(
                f"only {available} ballots of type {src[0]} available, "
                f"cannot {'remove' if dst is None else 'move'} {count}"
            )
        entries = dict(self.entries)
        entries[src] = available - count
        if entries[src] == 0:
            del entries[src]
        if dst is not None:
            entries[dst] = entries.get(dst, 0) + count
        return PreferenceProfile(self.roster, entries)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "roster": roster_to_json_dict(self.roster),
            "entries": [
                {"ranking": list(ranking), "raw_first_invalid": flag, "count": count}
                for (ranking, flag), count in sorted(self.entries.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "PreferenceProfile":
        entries = {}
        for e in doc["entries"]:
            flag = _boolean(e.get("raw_first_invalid"), "entry raw_first_invalid")
            entries[(tuple(e["ranking"]), flag)] = int(e["count"])
        return cls(_decode_roster(doc["roster"]), entries)
