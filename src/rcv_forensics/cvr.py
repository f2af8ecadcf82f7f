"""Cast-vote-record ingestion: candidate rosters, raw ballots, and the JSONL interchange format.

A roster is a JSON object with a ``candidates`` array of ``{id, name, writein}``
objects; ``writein`` is optional and a boolean. A CVR file is newline-delimited
JSON, one ballot per line: ``{"ballot_id": str, "ranks": [[id, ...], ...]}``
where an empty array is a skipped rank and an array of two or more ids is an
overvote. Trailing empty slots may be omitted on input; emitted files always
write every slot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable


class ParseError(ValueError):
    """A roster or CVR document could not be parsed."""


class ValidationError(ValueError):
    """Parsed or constructed data violates a structural invariant."""


@dataclass(frozen=True)
class Candidate:
    id: str
    name: str
    is_writein: bool = False


@dataclass(frozen=True)
class CandidateRoster:
    """Ordered candidate list; ids and names are unique.

    Presence of at least one official (non-write-in) candidate is enforced at
    roster load, not here, so that candidate-removal edits can produce
    arbitrarily small rosters.
    """

    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        index = {c.id: i for i, c in enumerate(self.candidates)}
        if len(index) != len(self.candidates):
            raise ValidationError("duplicate candidate id in roster")
        if len({c.name for c in self.candidates}) != len(self.candidates):
            raise ValidationError("duplicate candidate name in roster")
        # derived once: a roster never changes, and these are read per ballot and per round
        self.__dict__.update(
            _index=index,
            _ids=tuple(index),
            _writein_ids=frozenset(c.id for c in self.candidates if c.is_writein),
            _official_ids=tuple(c.id for c in self.candidates if not c.is_writein),
        )

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def writein_ids(self) -> frozenset[str]:
        return self._writein_ids

    def official_ids(self) -> tuple[str, ...]:
        return self._official_ids

    def __contains__(self, candidate_id: object) -> bool:
        return candidate_id in self._index

    def index(self, candidate_id: str) -> int:
        if candidate_id not in self._index:
            raise ValidationError(f"unknown candidate id {candidate_id!r}")
        return self._index[candidate_id]

    def get(self, candidate_id: str) -> Candidate:
        return self.candidates[self.index(candidate_id)]


@dataclass(frozen=True)
class RawBallot:
    """An as-cast ballot: ordered rank slots, each a set of candidate ids.

    Slots are canonicalized to sorted, deduplicated tuples so that equal
    ballots compare equal and the JSONL round trip is exact.
    """

    ballot_id: str
    slots: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.slots) < 1:
            raise ValidationError(f"ballot {self.ballot_id!r}: at least one rank slot required")
        object.__setattr__(
            self, "slots", tuple(tuple(sorted(set(slot))) for slot in self.slots)
        )


def load_roster(source: IO[str]) -> CandidateRoster:
    """Parse a roster JSON document, preserving file order."""
    try:
        doc = json.load(source)
    except UnicodeDecodeError as exc:
        raise ParseError(f"roster is not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"roster line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("roster nested too deeply to parse") from exc
    return _decode_roster(doc)


def _boolean(value: object, what: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{what} must be true or false")
    return value


def _decode_roster(doc: object) -> CandidateRoster:
    """The roster of a roster document or of a profile document."""
    if not isinstance(doc, dict) or not isinstance(doc.get("candidates"), list):
        raise ParseError("roster document must be an object with a 'candidates' array")
    candidates = []
    for i, item in enumerate(doc["candidates"]):
        if not isinstance(item, dict) or "id" not in item or "name" not in item:
            raise ParseError(f"roster candidate #{i + 1}: expected an object with id and name")
        cid = str(item["id"])
        writein = _boolean(item.get("writein", False), f"roster candidate {cid!r}: writein")
        candidates.append(Candidate(cid, str(item["name"]), writein))
    roster = CandidateRoster(tuple(candidates))
    if not roster.official_ids():
        raise ValidationError("roster needs at least one official (non-write-in) candidate")
    return roster


def _parse_line(line_no: int, line: str, roster: CandidateRoster) -> RawBallot:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {line_no}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"line {line_no}: nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"line {line_no}: expected a JSON object")
    ballot_id = doc.get("ballot_id")
    if not isinstance(ballot_id, str) or not ballot_id:
        raise ParseError(f"line {line_no}: missing or invalid ballot_id")
    ranks = doc.get("ranks")
    if not isinstance(ranks, list) or not ranks:
        raise ParseError(f"line {line_no}: 'ranks' must be a non-empty array of arrays")
    for slot in ranks:
        if not isinstance(slot, list) or not all(isinstance(c, str) for c in slot):
            raise ParseError(f"line {line_no}: each rank slot must be an array of candidate ids")
        for cid in slot:
            if cid not in roster:
                raise ParseError(f"ballot {ballot_id!r}: unknown candidate id {cid!r}")
    return RawBallot(ballot_id, tuple(ranks))


def parse_cvr(source: IO[str], roster: CandidateRoster) -> list[RawBallot]:
    """Parse a newline-delimited CVR stream into raw ballots, in file order.

    Blank lines are skipped; the returned count equals the non-blank line count.
    """
    ballots = []
    try:
        for line_no, line in enumerate(source, start=1):
            if not line.strip():
                continue
            ballots.append(_parse_line(line_no, line, roster))
    except UnicodeDecodeError as exc:
        raise ParseError(f"CVR is not UTF-8 text: {exc.reason}") from exc
    return ballots


def emit_cvr(ballots: Iterable[RawBallot], sink: IO[str]) -> None:
    """Write ballots in the line-oriented CVR format, one JSON object per line."""
    for ballot in ballots:
        doc = {"ballot_id": ballot.ballot_id, "ranks": [list(slot) for slot in ballot.slots]}
        sink.write(_jsonl_line(doc))


def _jsonl_line(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def roster_to_json_dict(roster: CandidateRoster) -> dict:
    return {
        "candidates": [
            {"id": c.id, "name": c.name, "writein": c.is_writein} for c in roster.candidates
        ]
    }
