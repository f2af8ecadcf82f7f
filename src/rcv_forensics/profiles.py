"""Preference profiles and the ballot edits every method and audit is built on.

A profile is a multiset of cleaned ballots over a roster, keyed by
``(ranking, raw_first_invalid)``. The flag records whether the as-cast first
rank held no valid (official) candidate; keying on it lets buggy-mode
tabulation survive every edit, and edits never alter it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .cvr import (
    CandidateRoster, ParseError, ValidationError, _boolean, _decode_roster, roster_to_json_dict,
)

Ranking = tuple[str, ...]
ProfileKey = tuple[Ranking, bool]


@dataclass(frozen=True)
class PreferenceProfile:
    roster: CandidateRoster
    entries: dict[ProfileKey, int]

    def __post_init__(self) -> None:
        """Check each entry (a positive int count, then no candidate ranked
        twice, then every candidate on the roster, tested as one set
        comparison against the roster's ids) and normalize its key."""
        known = self.roster._index.keys()
        normalized: dict[ProfileKey, int] = {}
        for (ranking, flag), count in self.entries.items():
            ranking = tuple(ranking)
            if not isinstance(count, int) or count <= 0:
                raise ValidationError(f"entry count for {ranking} must be a positive integer")
            ranked = set(ranking)
            if len(ranked) != len(ranking):
                raise ValidationError(f"ranking {ranking} contains a duplicate candidate")
            if not known >= ranked:
                unknown = next(cid for cid in ranking if cid not in known)
                raise ValidationError(f"ranking references unknown candidate {unknown!r}")
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

    def pairwise_matrix(self) -> dict[str, dict[str, int]]:
        """Head-to-head counts, one row per candidate: ``rows[x][y]`` is the
        number of ballots ranking x above y. Rows, and the keys of each row,
        follow roster order, and a row leaves out its own candidate.

        Unranked candidates sit below every ranked candidate; ballots ranking
        neither of a pair count for neither side. So row x starts at the number
        of ballots ranking x (one tally pass), and each entry takes its count
        off ``rows[x][y]`` for each y it ranks above x: the work is Σk² over
        entries of ranking length k, not Σk·(n-1) for a roster of n.
        """
        ids = self.roster.ids()
        ranked = dict.fromkeys(ids, 0)
        for (ranking, _), count in self.entries.items():
            for x in ranking:
                ranked[x] += count
        rows = {x: dict.fromkeys([y for y in ids if y != x], ranked[x]) for x in ids}
        for (ranking, _), count in self.entries.items():
            for i, x in enumerate(ranking):
                row = rows[x]
                for y in ranking[:i]:
                    row[y] -= count
        return rows

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

    def remove_ballots(
        self,
        ballot_type: Sequence[str],
        count: int,
        raw_first_invalid: bool = False,
    ) -> "PreferenceProfile":
        """Delete ``count`` ballots of one type; the only edit that changes the total."""
        return self._move((tuple(ballot_type), raw_first_invalid), count, None)

    def _move(self, src: ProfileKey, count: int, dst: ProfileKey | None) -> "PreferenceProfile":
        """``count`` ballots of src moved to dst, or deleted when dst is None.
        An int count leaves every other entry valid, so only dst takes the
        public checks (as a one-entry profile, which normalizes its key)."""
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
        if dst is not None and isinstance(count, int):
            (dst,) = PreferenceProfile(self.roster, {dst: count}).entries
        entries = dict(self.entries)
        entries[src] = available - count
        if entries[src] == 0:
            del entries[src]
        if dst is not None:
            entries[dst] = entries.get(dst, 0) + count
        if not isinstance(count, int):  # every entry takes the checks, in order
            return PreferenceProfile(self.roster, entries)
        moved = object.__new__(PreferenceProfile)
        moved.__dict__.update(roster=self.roster, entries=entries)
        return moved

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
        if not isinstance(doc, Mapping) or not isinstance(doc.get("entries"), list):
            raise ParseError("profile document must be an object with an 'entries' array")
        entries, positions = {}, {}
        for i, e in enumerate(doc["entries"], 1):
            if not isinstance(e, Mapping) or not isinstance(e.get("ranking"), list):
                raise ParseError(f"profile entry #{i}: expected an object with a ranking array")
            if not all(isinstance(c, str) for c in e["ranking"]):
                raise ParseError(f"profile entry #{i}: ranking must hold candidate ids")
            count = e.get("count")
            if not isinstance(count, int) or isinstance(count, bool):
                raise ParseError(f"profile entry #{i}: count must be an integer")
            flag = _boolean(e.get("raw_first_invalid"), f"profile entry #{i}: raw_first_invalid")
            key = (tuple(e["ranking"]), flag)
            if key in positions:
                raise ParseError(
                    f"profile entry #{i}: repeats entry #{positions[key]}"
                    " (same ranking and raw_first_invalid)"
                )
            entries[key], positions[key] = count, i
        return cls(_decode_roster(doc.get("roster")), entries)
