"""Cast-vote-record ingestion: candidate rosters, raw ballots, and the JSONL interchange format.

A roster is a JSON object with a ``candidates`` array of ``{id, name, writein}``
objects; ``writein`` is optional and a boolean. A CVR file is newline-delimited
JSON, one ballot per line: ``{"ballot_id": str, "ranks": [[id, ...], ...]}``
where an empty array is a skipped rank and an array of two or more ids is an
overvote. Trailing empty slots may be omitted on input (``"ranks": []`` omits
every slot); emitted files always write every slot. An optional boolean
``raw_first_invalid`` states that the as-cast first rank held no valid
candidate, which cleaned ranks no longer show. Each ``ballot_id`` appears once.

A parse returns a ``RawBallots`` table, not a list of ballots: each line's
``ballot_id``, the index of its ``(slots, raw_first_invalid)`` pattern, and the
distinct patterns. A ``RawBallot`` is built only when the table is iterated,
which nothing in this package does: sanitize reads the patterns. A parse
decodes and validates each distinct line tail once. The tail is the text
of a line after its leading ``ballot_id`` string; two lines with one tail are
one ballot under two ids, and a repeat costs the parse one id and one index.
One call keeps a table from each tail it has accepted to its pattern. A line
that opens otherwise, whose id holds an escape, or whose tail is new, gets the
full parse, so an error still names the first bad line; a tail that states a
``ballot_id`` of its own, which would override the one before it, is never
reused. The full parse decodes the line with the scanner that ``json.loads``
calls (``_decode_line``) and leaves any line the scanner cannot take whole to
``json.loads``, so every decode error is ``json.loads``'s own. It in turn
checks each distinct rank slot once, and equal slots are one tuple object.
These tables live only as long as the call, so no roster's validation reaches
another parse. The writer likewise encodes the tail (``cvr_tail``) apart from
the id, so equal ballots can share it, and joins each id's JSON string with no
document built.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from itertools import islice, pairwise
from json.encoder import encode_basestring_ascii
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
    """Ordered candidate list; ids are non-empty, and ids and names are unique.

    Presence of at least one official (non-write-in) candidate is enforced at
    roster load, not here, so that candidate-removal edits can produce
    arbitrarily small rosters.
    """

    candidates: tuple[Candidate, ...]

    def __post_init__(self) -> None:
        index = {c.id: i for i, c in enumerate(self.candidates)}
        if "" in index:
            raise ValidationError("empty candidate id in roster")
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
    ballots compare equal and the JSONL round trip is exact. A ballot may have
    no slots. ``raw_first_invalid`` is None unless the CVR line stated it.
    """

    ballot_id: str
    slots: tuple[tuple[str, ...], ...]
    raw_first_invalid: bool | None = None

    def __post_init__(self) -> None:
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
        cid, name = item["id"], item["name"]
        if not isinstance(cid, str) or not cid:
            raise ParseError(f"roster candidate #{i + 1}: id must be a non-empty string")
        if not isinstance(name, str) or not name:
            raise ParseError(f"roster candidate {cid!r}: name must be a non-empty string")
        writein = _boolean(item.get("writein", False), f"roster candidate {cid!r}: writein")
        candidates.append(Candidate(cid, name, writein))
    roster = CandidateRoster(tuple(candidates))
    if not roster.official_ids():
        raise ValidationError("roster needs at least one official (non-write-in) candidate")
    return roster


def _parsed_ballot(
    ballot_id: str, slots: tuple[tuple[str, ...], ...], raw_first_invalid: bool | None
) -> RawBallot:
    """A RawBallot of slots that are canonical already, built without
    ``__post_init__``'s sort of every slot. Fields are set one by one, as the
    dataclass's own ``__init__`` does: going through ``__dict__`` would make
    every ballot build a dict object, which about doubles its size."""
    ballot = object.__new__(RawBallot)
    object.__setattr__(ballot, "ballot_id", ballot_id)
    object.__setattr__(ballot, "slots", slots)
    object.__setattr__(ballot, "raw_first_invalid", raw_first_invalid)
    return ballot


class RawBallots:
    """Raw ballots as a table: ``ids`` holds each ballot's ``ballot_id`` and
    ``kinds`` the index of its pattern, both in ballot order; ``patterns``
    holds each distinct ``(slots, raw_first_invalid)`` in order of first
    appearance. A ``RawBallot`` is built only when the table is iterated,
    and ballots of one pattern share its slots tuple."""

    __slots__ = ("ids", "kinds", "patterns")

    def __init__(self, ids: list[str], kinds: list[int], patterns: list[tuple]) -> None:
        self.ids = ids
        self.kinds = kinds
        self.patterns = patterns

    @classmethod
    def of(cls, ballots: Iterable[RawBallot]) -> RawBallots:
        """The table of any ballots; a table is returned as it is."""
        if isinstance(ballots, cls):
            return ballots
        table, index = cls([], [], []), {}
        for ballot in ballots:
            table._add(index, ballot.ballot_id, ballot.slots, ballot.raw_first_invalid)
        return table

    def _add(
        self, index: dict, ballot_id: str, slots: tuple, raw_first_invalid: bool | None
    ) -> int:
        """Append a ballot and return its kind; ``index`` maps each pattern
        of the table to its kind."""
        pattern = (slots, raw_first_invalid)
        kind = index.setdefault(pattern, len(self.patterns))
        if kind == len(self.patterns):
            self.patterns.append(pattern)
        self.ids.append(ballot_id)
        self.kinds.append(kind)
        return kind

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        patterns = self.patterns
        for ballot_id, kind in zip(self.ids, self.kinds):
            yield _parsed_ballot(ballot_id, *patterns[kind])


def _slots(
    line_no: int, ballot_id: str, ranks: list, roster: CandidateRoster, seen: dict
) -> tuple[tuple[str, ...], ...]:
    """The canonical slots of a line's ranks array, each id checked against
    the roster. ``seen`` is the parse's table from each slot accepted so far,
    as a tuple, to its canonical tuple; a list slot found there skips its
    checks and its sort, and equal canonical slots are one tuple object. Only
    the full parse runs it (see ``parse_cvr``)."""
    slots = []
    for slot in ranks:
        # a string or an object slot would meet an accepted one as a tuple: tuple("HM")
        if isinstance(slot, list):
            try:
                canonical = seen.get(tuple(slot))
            except TypeError:  # an unhashable member, which the checks below refuse
                canonical = None
            if canonical is not None:
                slots.append(canonical)
                continue
        if not isinstance(slot, list) or not all(isinstance(c, str) for c in slot):
            raise ParseError(f"line {line_no}: each rank slot must be an array of candidate ids")
        for cid in slot:
            if cid not in roster:
                raise ParseError(f"ballot {ballot_id!r}: unknown candidate id {cid!r}")
        canonical = tuple(sorted(set(slot)))
        seen[tuple(slot)] = canonical = seen.setdefault(canonical, canonical)
        slots.append(canonical)
    return tuple(slots)


_scan_once = json.JSONDecoder().scan_once


def _decode_line(line: str) -> object:
    """``json.loads(line)``, value and error alike. A line that opens with its
    value and has nothing but JSON whitespace after it is decoded by the
    scanner ``json.loads`` calls, without its wrapper; any other line (one
    that opens with whitespace or a BOM, say, or has extra data) is left to
    ``json.loads``, so every error is its own."""
    try:
        doc, end = _scan_once(line, 0)
    except StopIteration:
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return doc


def _parse_line(
    line_no: int, line: str, roster: CandidateRoster, seen: dict
) -> tuple[str, tuple[tuple[str, ...], ...], bool | None]:
    """A line's ballot_id, canonical slots and stated flag, or the
    ParseError that names what is wrong with it. The line is decoded by
    ``_decode_line``, whose errors are those of ``json.loads``."""
    try:
        doc = _decode_line(line)
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
    if not isinstance(ranks, list):
        raise ParseError(f"line {line_no}: 'ranks' must be an array of arrays")
    slots = _slots(line_no, ballot_id, ranks, roster, seen)
    if "raw_first_invalid" in doc:
        _boolean(doc["raw_first_invalid"], f"line {line_no}: raw_first_invalid")
    return ballot_id, slots, doc.get("raw_first_invalid")


# a line's opening up to its ballot_id (JSON whitespace only: \s would also
# match \x0b and \u00a0, which JSON refuses), an id of no quote, backslash or
# control character, which JSON reads as it stands, then the tail
_PLAIN_ID = re.compile(
    r'\{[ \t\n\r]*"ballot_id"[ \t\n\r]*:[ \t\n\r]*"([^"\\\x00-\x1f]+)"(.*)', re.DOTALL
)


def _states_id(tail: str) -> bool:
    """Whether the tail of an accepted line holds a ``ballot_id`` member of
    its own, which overrides the one before it. The tail of an accepted line
    is JSON whitespace, a comma, then members and the closing brace. A member
    name is ``ballot_id`` only as that text or spelled with a ``\\`` escape,
    so a tail holding neither is not decoded."""
    if "ballot_id" not in tail and "\\" not in tail:
        return False
    return "ballot_id" in json.loads("{" + tail.lstrip()[1:])


def parse_cvr(source: IO[str], roster: CandidateRoster) -> RawBallots:
    """Parse a newline-delimited CVR stream into a table of raw ballots, in
    file order; a ``RawBallot`` is built only when the table is iterated.

    Blank lines are skipped; the table's length equals the non-blank line
    count. A repeated ballot_id is a ParseError naming both ballots by
    position. Each distinct line tail (``_PLAIN_ID``) is decoded and
    validated once per call, and a line that repeats it adds only its id and
    its pattern's index to the table; a line with a new tail, or with no
    leading ballot_id of plain text (an id with an escape, say), gets the
    full parse, so an error names the first bad line. That parse decodes the
    line with ``json.loads``'s own scanner (``_decode_line``), and its errors
    are those of ``json.loads``.
    Within that parse each distinct rank slot is checked once per call
    (``_slots``), and equal slots are one tuple. A tail is checked for an id
    of its own (``_states_id``) when it is first seen again; only a tail
    holding the text ``ballot_id`` or an escape is decoded for it.
    """
    table = RawBallots([], [], [])
    ids, kinds = table.ids, table.kinds
    index: dict = {}  # the pattern index of ``RawBallots._add``
    # tail -> [kind, checked] of an accepted line; None once the tail states an id
    tails: dict = {}
    seen_slots: dict = {}  # the slot table of ``_slots``
    plain_id = _PLAIN_ID.match
    try:
        for line_no, line in enumerate(source, start=1):
            plain = plain_id(line)
            ballot_id, tail = (None, None) if plain is None else plain.groups()
            known = tails.get(tail)
            if known is not None and not known[1]:
                known[1] = True
                if _states_id(tail):
                    tails[tail] = known = None
            if known is not None:
                ids.append(ballot_id)
                kinds.append(known[0])
                continue
            if not line.strip():
                continue
            kind = table._add(index, *_parse_line(line_no, line, roster, seen_slots))
            if tail is not None and tail not in tails:
                tails[tail] = [kind, False]
    except UnicodeDecodeError as exc:
        raise ParseError(f"CVR is not UTF-8 text: {exc.reason}") from exc
    # checked once, on a sorted list of ids: the parse holds no id set
    ordered = sorted(ids)
    if any(map(operator.eq, ordered, islice(ordered, 1, None))):
        repeated = next(a for a, b in pairwise(ordered) if a == b)
        first, second = [n for n, i in enumerate(ids, 1) if i == repeated][:2]
        raise ParseError(f"CVR ballots #{first} and #{second} share ballot_id {repeated!r}")
    return table


def cvr_tail(slots: Iterable, raw_first_invalid: bool | None) -> str:
    """What follows the ballot_id in a CVR line: every slot, ids encoded as in
    ``cvr_line`` (a TypeError unless a string), and the flag's truth value
    unless it is None. Ballots with equal slots and flag share it."""
    ranks = ["[" + ",".join(map(encode_basestring_ascii, slot)) + "]" for slot in slots]
    tail = ',"ranks":[' + ",".join(ranks) + "]"
    if raw_first_invalid is not None:
        tail += ',"raw_first_invalid":' + ("true" if raw_first_invalid else "false")
    return tail + "}\n"


def cvr_line(ballot_id: str, tail: str) -> str:
    """One ballot as a CVR line: its ballot_id, then its ``cvr_tail``. The id
    is encoded by the function ``json.dumps`` calls on a string, so the bytes
    are the same."""
    return '{"ballot_id":' + encode_basestring_ascii(ballot_id) + tail


def emit_cvr(ballots: Iterable[RawBallot], sink: IO[str]) -> None:
    """Write ballots in the line-oriented CVR format, one JSON object per line."""
    for ballot in ballots:
        sink.write(cvr_line(ballot.ballot_id, cvr_tail(ballot.slots, ballot.raw_first_invalid)))


def roster_to_json_dict(roster: CandidateRoster) -> dict:
    return {
        "candidates": [
            {"id": c.id, "name": c.name, "writein": c.is_writein} for c in roster.candidates
        ]
    }
