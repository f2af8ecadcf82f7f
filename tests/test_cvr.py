import io
import json
import random
from collections import Counter
from json.decoder import scanstring

import pytest
from hypothesis import example, given, strategies as st

from rcv_forensics import (
    ALAMEDA,
    Candidate,
    CandidateRoster,
    ParseError,
    RawBallot,
    RawBallots,
    UnknownFixtureError,
    ValidationError,
    emit_cvr,
    fixture_roster,
    load_builtin_fixture,
    load_roster,
    parse_cvr,
    sanitize_ballot,
)
from rcv_forensics import cvr
from rcv_forensics.cvr import _PLAIN_ID, cvr_line, cvr_tail

OAKLAND_ROSTER_JSON = json.dumps(
    {
        "candidates": [
            {"id": "H", "name": "Mike Hutchinson", "writein": False},
            {"id": "M", "name": "Pecolia Manigo", "writein": False},
            {"id": "R", "name": "Nick Resnick", "writein": False},
            {"id": "WI1", "name": "Write-in 1", "writein": True},
            {"id": "WI2", "name": "Write-in 2", "writein": True},
        ]
    }
)


class TestLoadRoster:
    def test_minimal_roster(self):
        doc = '{"candidates":[{"id":"H","name":"Mike Hutchinson","writein":false}]}'
        roster = load_roster(io.StringIO(doc))
        assert roster.ids() == ("H",)
        assert not roster.get("H").is_writein

    def test_oakland_roster(self):
        roster = load_roster(io.StringIO(OAKLAND_ROSTER_JSON))
        assert roster.ids() == ("H", "M", "R", "WI1", "WI2")
        assert roster.writein_ids() == {"WI1", "WI2"}
        assert roster.official_ids() == ("H", "M", "R")
        assert roster.ids() is roster.ids()
        assert roster.index("WI2") == 4
        assert "WI2" in roster and "X" not in roster
        with pytest.raises(ValidationError, match="unknown candidate id 'X'"):
            roster.get("X")

    def test_duplicate_id_rejected(self):
        doc = '{"candidates":[{"id":"H","name":"a"},{"id":"H","name":"b"}]}'
        with pytest.raises(ValidationError):
            load_roster(io.StringIO(doc))

    def test_duplicate_name_rejected(self):
        doc = '{"candidates":[{"id":"H","name":"a"},{"id":"M","name":"a"}]}'
        with pytest.raises(ValidationError, match="^duplicate candidate name in roster$"):
            load_roster(io.StringIO(doc))

    def test_roster_built_in_code_refuses_an_empty_id(self):
        """An id '' would be dropped from transfer records as if it were the
        exhausted key None, so a roster refuses it however it is built."""
        candidates = (Candidate("", "Blank"), Candidate("A", "Ann"), Candidate("B", "Bo"))
        with pytest.raises(ValidationError, match="^empty candidate id in roster$"):
            CandidateRoster(candidates)

    def test_malformed_document_has_line_context(self):
        with pytest.raises(ParseError, match="line"):
            load_roster(io.StringIO('{"candidates": [}'))

    def test_all_writein_roster_rejected(self):
        doc = '{"candidates":[{"id":"W","name":"w","writein":true}]}'
        with pytest.raises(ValidationError):
            load_roster(io.StringIO(doc))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("[]", "roster document must be an object with a 'candidates' array"),
            ("{}", "roster document must be an object with a 'candidates' array"),
            ('{"candidates": {}}', "roster document must be an object with a 'candidates' array"),
            ('{"candidates":[{"id":"H","name":"H"},{"id":"M"}]}', "roster candidate #2: "),
            ('{"candidates":[{"id":"H","name":"H"},{"name":"M"}]}', "roster candidate #2: "),
            ('{"candidates":[{"id":"H","name":"H"},"M"]}', "roster candidate #2: "),
            ('{"candidates":[{"id":null,"name":"A"}]}', "roster candidate #1: id must be"),
            ('{"candidates":[{"id":"H","name":"H"},{"id":["H"],"name":"M"}]}', "roster candidate #2: id must be"),
            ('{"candidates":[{"id":7,"name":"A"}]}', "roster candidate #1: id must be"),
            ('{"candidates":[{"id":"","name":"A"}]}', "roster candidate #1: id must be"),
            ('{"candidates":[{"id":"H","name":2}]}', "roster candidate 'H': name must be"),
            ('{"candidates":[{"id":"H","name":""}]}', "roster candidate 'H': name must be"),
            ('{"candidates":[{"id":"H","name":null}]}', "roster candidate 'H': name must be"),
        ],
    )
    def test_malformed_roster_rejected(self, doc, message):
        with pytest.raises(ParseError, match=f"^{message}"):
            load_roster(io.StringIO(doc))

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1"])
    def test_non_boolean_writein_rejected(self, value):
        doc = (
            '{"candidates":[{"id":"H","name":"H"},'
            f'{{"id":"M","name":"M","writein":{value}}}]}}'
        )
        with pytest.raises(ParseError, match="'M': writein must be true or false"):
            load_roster(io.StringIO(doc))


@pytest.fixture
def roster():
    return load_roster(io.StringIO(OAKLAND_ROSTER_JSON))


class TestParseCvr:
    def test_clean_full_ranking(self, roster):
        line = '{"ballot_id":"b1","ranks":[["H"],["M"],["R"]]}'
        (ballot,) = parse_cvr(io.StringIO(line), roster)
        assert ballot.slots == (("H",), ("M",), ("R",))

    def test_overvote_slot(self, roster):
        line = '{"ballot_id":"b2","ranks":[["H"],["M","R"],["WI1"]]}'
        (ballot,) = parse_cvr(io.StringIO(line), roster)
        assert ballot.slots[1] == ("M", "R")

    def test_skipped_slots(self, roster):
        line = '{"ballot_id":"b3","ranks":[["H"],[],[],[],["M"]]}'
        (ballot,) = parse_cvr(io.StringIO(line), roster)
        assert ballot.slots[1:4] == ((), (), ())

    def test_unknown_candidate_names_ballot(self, roster):
        line = '{"ballot_id":"odd-1","ranks":[["X"]]}'
        with pytest.raises(ParseError, match="odd-1"):
            parse_cvr(io.StringIO(line), roster)

    def test_malformed_line_numbered(self, roster):
        text = '{"ballot_id":"b1","ranks":[["H"]]}\nnot json\n'
        with pytest.raises(ParseError, match="line 2"):
            parse_cvr(io.StringIO(text), roster)

    def test_blank_lines_skipped(self, roster):
        text = '\n{"ballot_id":"b1","ranks":[["H"]]}\n\n{"ballot_id":"b2","ranks":[["M"]]}\n'
        assert len(parse_cvr(io.StringIO(text), roster)) == 2

    def test_round_trip_identity(self, roster):
        ballots = [
            RawBallot("b1", (("H",), ("M",), ("R",))),
            RawBallot("b2", (("WI1",), ("H",))),
            RawBallot("b3", ((), ("M", "R"), (), ("H",))),
            RawBallot("b4", (), False),
        ]
        sink = io.StringIO()
        emit_cvr(ballots, sink)
        assert list(parse_cvr(io.StringIO(sink.getvalue()), roster)) == ballots

    @pytest.mark.parametrize("value, flag", [("true", True), ("false", False)])
    def test_stated_flag_read(self, roster, value, flag):
        line = f'{{"ballot_id":"b1","ranks":[["H"]],"raw_first_invalid":{value}}}'
        (ballot,) = parse_cvr(io.StringIO(line), roster)
        assert ballot.raw_first_invalid is flag
        (ballot,) = parse_cvr(io.StringIO('{"ballot_id":"b1","ranks":[["H"]]}'), roster)
        assert ballot.raw_first_invalid is None

    @pytest.mark.parametrize("value", ['"true"', '"false"', "0", "1", "null", "[]"])
    def test_non_boolean_flag_rejected(self, roster, value):
        text = (
            '{"ballot_id":"b1","ranks":[["H"]]}\n'
            f'{{"ballot_id":"b2","ranks":[["H"]],"raw_first_invalid":{value}}}\n'
        )
        with pytest.raises(ParseError, match="^line 2: raw_first_invalid must be true or false$"):
            parse_cvr(io.StringIO(text), roster)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('["b1"]', "expected a JSON object"),
            ('{"ranks":[["H"]]}', "missing or invalid ballot_id"),
            ('{"ballot_id":"","ranks":[["H"]]}', "missing or invalid ballot_id"),
            ('{"ballot_id":5,"ranks":[["H"]]}', "missing or invalid ballot_id"),
            *(
                (f'{{"ballot_id":"b1","ranks":{ranks}}}', "'ranks' must be an array of arrays")
                for ranks in ('"H"', '{"H": 1}', "null", "1")
            ),
            *(
                (f'{{"ballot_id":"b1","ranks":{ranks}}}', "each rank slot must be an array of ")
                for ranks in ('["H"]', "[[1]]")
            ),
        ],
    )
    def test_malformed_line_rejected(self, roster, line, message):
        """A line of the wrong shape is refused with its number, never read
        as some other ballot (a bare "H" slot is not the slot ["H"])."""
        text = '{"ballot_id":"b0","ranks":[["H"]]}\n' + line
        with pytest.raises(ParseError, match=f"^line 2: {message}"):
            parse_cvr(io.StringIO(text), roster)

    def test_repeated_ballot_id_names_both_ballots(self, roster):
        ids = ["b2", "b1", "", "b3", "b1", "b1"]
        text = "\n".join(
            f'{{"ballot_id":"{i}","ranks":[["H"]]}}' if i else "" for i in ids
        )
        with pytest.raises(ParseError, match=r"^CVR ballots #2 and #4 share ballot_id 'b1'$"):
            parse_cvr(io.StringIO(text), roster)


@given(
    st.lists(
        st.lists(st.sampled_from(["H", "M", "R", "WI1", "WI2"]), max_size=3),
        max_size=6,
    ),
    st.sampled_from([None, True, False]),
)
def test_round_trip_identity_random(slots, flag):
    roster = load_roster(io.StringIO(OAKLAND_ROSTER_JSON))
    ballots = [RawBallot("x", tuple(tuple(s) for s in slots), flag)]
    sink = io.StringIO()
    emit_cvr(ballots, sink)
    assert list(parse_cvr(io.StringIO(sink.getvalue()), roster)) == ballots


@given(st.text())
@example('q"uote')
@example("back\\slash\\")
@example("ctl\t\n\r\x00\x1f\x7f")
@example("Jos\u00e9 \u5019\u9009")
@example("\U0001f5f3 \ud800")
def test_cvr_line_id_bytes_match_json_dumps(ballot_id):
    """The writer encodes an id as ``json.dumps`` does, escapes and all."""
    tail = cvr_tail([("H",)], None)
    assert cvr_line(ballot_id, tail) == '{"ballot_id":' + json.dumps(ballot_id) + tail


def json_dumps_tail(slots, raw_first_invalid) -> str:
    """The ``cvr_tail`` that encoded a whole document with ``json.dumps``.
    It is the only copy and exists to check ``cvr_tail``'s bytes."""
    doc = {"ranks": [list(slot) for slot in slots]}
    if raw_first_invalid is not None:
        doc["raw_first_invalid"] = raw_first_invalid
    return "," + json.dumps(doc, separators=(",", ":"))[1:] + "\n"


# any code point, lone surrogates among them, with JSON's escapes drawn often
ANY_ID = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\x00\x1f\x7f\ud800\udfff'))
)


@given(st.lists(st.lists(ANY_ID, max_size=4), max_size=6), st.sampled_from([None, True, False]))
@example([], None)
@example([], True)
@example([[]], False)
@example([[], ["H"], []], None)
@example([['q"uote', "back\\slash\\"], ["ctl\t\n\r\x00\x1f\x7f"]], True)
@example([["Jos\u00e9 \u5019\u9009", "\U0001f5f3", "\ud800", "\udfff x"]], False)
def test_cvr_tail_bytes_match_json_dumps(slots, flag):
    """The writer's tail has the bytes of ``json.dumps`` of the document it
    stands for, escapes and all, with every slot and the flag unless None."""
    assert cvr_tail(slots, flag) == json_dumps_tail(slots, flag)


def test_writer_refuses_an_id_that_is_not_a_string():
    """A hand-built ballot whose slot holds an id that is not a string, which
    ``json.dumps`` wrote as a JSON number, is a TypeError for the writer; the
    parse refuses such a line anyway."""
    ballot = RawBallot("b", ((5,), ("H",)))
    with pytest.raises(TypeError):
        emit_cvr([ballot], io.StringIO())
    with pytest.raises(TypeError):
        cvr_tail([("H", 5)], None)
    line = '{"ballot_id":"b","ranks":[[5],["H"]]}\n'
    with pytest.raises(ParseError, match="each rank slot must be an array of candidate ids"):
        parse_cvr(io.StringIO(line), fixture_roster("oakland-full-synthetic"))


def decode_outcome(decode, line):
    """What a decode of one line gives: the value (as its repr, so that NaN
    equals NaN), or the type of the exception with its ``msg`` and ``pos``."""
    try:
        return repr(decode(line))
    except Exception as exc:  # every exception, so that a wrong type shows
        return type(exc), getattr(exc, "msg", None), getattr(exc, "pos", None)


# a valid CVR line with its newline taken off, in the writer's compact form or json.dumps's
CVR_BODIES = st.builds(
    lambda ballot_id, slots, flag, spaced: (
        cvr_line(ballot_id, cvr_tail(slots, flag))[:-1]
        if not spaced
        else json.dumps({"ballot_id": ballot_id, "ranks": slots, "raw_first_invalid": flag})
    ),
    ANY_ID,
    st.lists(st.lists(ANY_ID, max_size=3), max_size=4),
    st.sampled_from([None, True, False]),
    st.booleans(),
)
LINE_BODIES = st.one_of(
    CVR_BODIES,
    CVR_BODIES.flatmap(lambda body: st.integers(0, len(body)).map(lambda cut: body[:cut])),
    st.sampled_from([
        "NaN", "Infinity", "-Infinity", '{"ballot_id":NaN,"ranks":[[Infinity]]}',
        '"\\ud800"', '{"ballot_id":"\\udfff","ranks":[["\\ud800x"]]}', "[]", "{}", "1", "",
    ]),
    st.text(max_size=30),
)
# JSON whitespace, and characters that look like it but are not
LINE_OPENINGS = st.sampled_from(
    ["", "", " ", "\t", "\n", "\r", " \t\r\n", "\ufeff", "\ufeff ", "\x0b"]
)
LINE_ENDINGS = st.sampled_from([
    "", "\n", "\n", " \t\r\n", "\r\n", "\x0b", "\x0c", "\xa0", "\u2028", "\n\x0b", " \u2028\n",
    " 1", "{}", '"x"\n', "\n{}\n", " NaN", "]", "}",
])


@given(LINE_OPENINGS, LINE_BODIES, LINE_ENDINGS)
@example("", '{"ballot_id":"b","ranks":[["H"]]}', "\n")
@example(" \t", '{"ballot_id":"b","ranks":[["H"]]}', "\n")
@example("\ufeff", '{"ballot_id":"b","ranks":[["H"]]}', "\n")
@example("", '{"ballot_id":"b","ranks":[["H"]]}', " \t\r\n")
@example("", '{"ballot_id":"b","ranks":[["H"]]}', "\x0b")
@example("", '{"ballot_id":"b","ranks":[["H"]]}', "\x0c\n")
@example("", '{"ballot_id":"b","ranks":[["H"]]}', "\xa0\n")
@example("", '{"ballot_id":"b","ranks":[["H"]]}', "\u2028")
@example("", '{"ballot_id":"b","ranks":[["H"]]}', '{"ballot_id":"c","ranks":[]}\n')
@example("", "NaN", "\n")
@example("", "-Infinity", "")
@example("", '{"ballot_id":"\\ud800","ranks":[["\\udfff"]]}', "\n")
@example("", '{"ballot_id":"b","ranks":[["H"]', "\n")
@example("", "", "\n")
@example("", "[" * 100_000, "\n")
def test_line_decoder_matches_json_loads(opening, body, ending):
    """The parse's line decoder gives what ``json.loads`` gives on any line:
    an equal value, or an exception of the same type with the same ``msg``
    and ``pos``; leading whitespace, a BOM, trailing characters that are or
    only look like JSON whitespace, a second value, constants and lone
    surrogates among them."""
    line = opening + body + ending
    assert decode_outcome(cvr._decode_line, line) == decode_outcome(json.loads, line)


@pytest.mark.parametrize("line", ["[" * 100_000, '{"ballot_id":"b","ranks":' + "[" * 100_000])
def test_deep_line_raises_recursion_error_as_json_loads_does(line):
    """A line nested past the recursion limit raises ``RecursionError`` from
    the decoder, as from ``json.loads``, and the parse turns it into a
    ParseError naming the line."""
    with pytest.raises(RecursionError):
        cvr._decode_line(line + "\n")
    with pytest.raises(ParseError, match=r"^line 2: nested too deeply to parse$"):
        parse_cvr(io.StringIO('{"ballot_id":"a","ranks":[]}\n' + line + "\n"), MEMO_ROSTER)


def reference_parse_cvr(source, roster) -> list[RawBallot]:
    """The per-line parse that ``parse_cvr`` replaced: every line is decoded
    and its ranks validated and canonicalized anew, with no table of tails.
    It is the only copy and exists to check ``parse_cvr``."""
    ballots = []
    for line_no, line in enumerate(source, start=1):
        if not line.strip():
            continue
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
        if not isinstance(ranks, list):
            raise ParseError(f"line {line_no}: 'ranks' must be an array of arrays")
        for slot in ranks:
            if not isinstance(slot, list) or not all(isinstance(c, str) for c in slot):
                raise ParseError(f"line {line_no}: each rank slot must be an array of candidate ids")
            for cid in slot:
                if cid not in roster:
                    raise ParseError(f"ballot {ballot_id!r}: unknown candidate id {cid!r}")
        if "raw_first_invalid" in doc and not isinstance(doc["raw_first_invalid"], bool):
            raise ParseError(f"line {line_no}: raw_first_invalid must be true or false")
        ballots.append(RawBallot(ballot_id, tuple(ranks), doc.get("raw_first_invalid")))
    repeated = sorted(
        ballot_id for ballot_id, n in Counter(b.ballot_id for b in ballots).items() if n > 1
    )
    if repeated:
        first, second = [n for n, b in enumerate(ballots, 1) if b.ballot_id == repeated[0]][:2]
        raise ParseError(f"CVR ballots #{first} and #{second} share ballot_id {repeated[0]!r}")
    return ballots


# ids "1" and "H" let a JSON 1, true or "H"-as-a-string slot meet an accepted "1" or ["H"];
# "José" is written as \u00e9 by the CVR writer
MEMO_ROSTER = load_roster(
    io.StringIO(
        '{"candidates":[{"id":"H","name":"H"},{"id":"M","name":"M"},{"id":"1","name":"One"},'
        '{"id":"W","name":"W","writein":true},{"id":"Jos\u00e9","name":"J"}]}'
    )
)
GOOD_RANKS = [
    [["H"], ["M"]], [["M", "H"], ["1"]], [["H", "M"], ["1"]], [[], ["W"], ["H", "H"]],
    [["1"]], [], [[]], [["W"]], [["M"], ["H"]], [["H", "M", "H"], [], ["M", "H"]],
]
BAD_RANKS = [
    ["H"], ["H", ["M"]], [{"H": 1}], [[1]], [[True]], [[None]], [[1.0]], [[["H"]]],
    [[{"H": 1}]], [["X"]], [["H"], ["X"]], [["X"], "H"], [["H"], "M"], "H", None, {"H": 1},
    # slots that meet an accepted slot as a tuple, or follow one that is accepted
    [["H", "M"], "HM"], [["M", "H"], {"H": 1, "M": 2}], [["1"], [1]], [["M"], ["M", "X"]],
    [[], ["H"], [["H"]]],
]
BAD_LINES = ["not json", "[]", '{"ranks":[["H"]]}', '{"ballot_id":7,"ranks":[]}', "{"]
FLAGS = ["", ',"raw_first_invalid":true', ',"raw_first_invalid":false']
BAD_FLAGS = [',"raw_first_invalid":"true"', ',"raw_first_invalid":0']
# how a line opens before its id: the first four put the id first, and most lines take one of
# the first three
OPENINGS = [
    '{"ballot_id":', '{"ballot_id": ', '{ "ballot_id" : ', '{\r"ballot_id"\t:', ' {"ballot_id":',
    '\t{"ballot_id":', '{"ballot\\u005fid":', '{"ranks":[],"ballot_id":',
]
BAD_OPENINGS = ['\ufeff{"ballot_id":', '{"ballot_id"\u00a0:', '{"ballot_id":\u00a0']
# what follows a line's number in its id
ID_SUFFIXES = ["", '\\"', "\\\\", "\\u0041", "\\u00e9", "\u00e9"]
BAD_IDS = ["", "b\t", "b\x0b"]
# how a line ends after its ranks and flag; the last two restate the id
ENDS = ["}", "}\r", "} ", ',"ballot_id":"r"}', ',"ballot\\u005fid":"r"}']
BAD_ENDS = ["} x", "}}", ',"ballot_id":""}']


def outcome(parse, text):
    """What a parse gives: each ballot as (ballot_id, slots, flag), or its
    ParseError message."""
    try:
        ballots = parse(io.StringIO(text), MEMO_ROSTER)
    except ParseError as exc:
        return str(exc)
    return [(b.ballot_id, b.slots, b.raw_first_invalid) for b in ballots]


def random_cvr(rng):
    """Lines drawn from a few ranks arrays, so most of them repeat an earlier
    line's tail. Ids carry escapes, lines open and end in several ways, and
    now and then a tail states an id of its own. About one file in two also
    holds a malformed line. It is wrong in one part, so that its tail may be
    one the parse has accepted, or in two, so that the parse must report the
    same one of them as the reference. Now and then a line takes an earlier
    line's id."""
    pool = rng.sample(GOOD_RANKS, rng.randint(1, 4))
    separators = rng.choice([(",", ":"), (", ", ": ")])
    bad_at = rng.randrange(40) if rng.random() < 0.5 else None
    lines = []
    for n in range(rng.randint(1, 40)):
        bad = set()
        if n == bad_at:
            if rng.random() < 0.2:
                lines.append(rng.choice(BAD_LINES))
                continue
            bad = set(rng.sample(["ranks", "flag", "opening", "id", "end"], rng.randint(1, 2)))
        ranks = rng.choice(BAD_RANKS if "ranks" in bad else pool)
        flag = rng.choice(BAD_FLAGS if "flag" in bad else FLAGS)
        opening = rng.choice(
            BAD_OPENINGS if "opening" in bad else OPENINGS[:3] if rng.random() < 0.8 else OPENINGS
        )
        # now and then an earlier line's number, which may repeat its id
        number = rng.randrange(n + 1) if rng.random() < 0.03 else n
        ballot_id = rng.choice(BAD_IDS) if "id" in bad else f"b{number}" + rng.choice(ID_SUFFIXES)
        end = rng.choice(BAD_ENDS if "end" in bad else ENDS[:1] if rng.random() < 0.9 else ENDS)
        ranks_text = json.dumps(ranks, separators=separators)
        lines.append(
            f'{opening}"{ballot_id}"{separators[0]}"ranks"{separators[1]}{ranks_text}{flag}{end}'
        )
        if rng.random() < 0.05:
            lines.append("")
    return "\n".join(lines)


def check_table(table):
    """A parse's table is the table of its own ballots: the same ids, kinds
    and patterns as ``RawBallots.of`` gives for them, and the same ballots
    each time it is iterated."""
    ballots = list(table)
    again = RawBallots.of(ballots)
    assert (table.ids, table.kinds, table.patterns) == (again.ids, again.kinds, again.patterns)
    assert list(table) == ballots
    assert RawBallots.of(table) is table


@pytest.mark.parametrize("seed", range(3))
def test_parse_matches_reference(seed):
    """The parse decodes each distinct line tail once; on files that repeat a
    few tails, with a malformed line in about half of them and now and then
    a repeated id, it gives the reference's ballots, or the reference's
    error for the first bad line or the first repeated id."""
    rng = random.Random(seed)
    kinds = set()
    duplicates = 0
    for _ in range(400):
        text = random_cvr(rng)
        expected = outcome(reference_parse_cvr, text)
        kinds.add(type(expected))
        duplicates += "share ballot_id" in expected
        assert outcome(parse_cvr, text) == expected
        if isinstance(expected, list):
            table = parse_cvr(io.StringIO(text), MEMO_ROSTER)
            assert list(table) == reference_parse_cvr(io.StringIO(text), MEMO_ROSTER)
            check_table(table)
    assert kinds == {list, str} and duplicates


def reference_split(line):
    """A line's leading ballot_id and its tail, the text after the id's
    closing quote; (None, None) unless the line opens with a non-empty
    ``ballot_id`` string. The opening is read step by step with JSON's
    whitespace, and the id by the scanner ``json.loads`` uses, so its escapes
    and its control-character rule are the same."""
    rest = line[1:].lstrip(" \t\n\r") if line.startswith("{") else ""
    if not rest.startswith('"ballot_id"'):
        return None, None
    rest = rest[len('"ballot_id"') :].lstrip(" \t\n\r")
    if not rest.startswith(":"):
        return None, None
    rest = rest[1:].lstrip(" \t\n\r")
    if not rest.startswith('"'):
        return None, None
    try:
        ballot_id, end = scanstring(rest, 1)
    except ValueError:
        return None, None
    if not ballot_id:
        return None, None
    return ballot_id, rest[end:]


@pytest.mark.parametrize("seed", range(3))
def test_plain_id_matches_split(seed):
    """The parse reads an id with no quote, backslash or control character
    by one match; on the random files' lines, whatever it matches, it reads
    as ``reference_split`` does. It matches a fair share of them; the ids of
    the others carry escapes, which only the full parse reads."""
    rng = random.Random(seed)
    lines = [line for _ in range(200) for line in random_cvr(rng).splitlines(keepends=True)]
    matched = 0
    for line in lines:
        plain = _PLAIN_ID.match(line)
        if plain is not None:
            matched += 1
            assert plain.groups() == reference_split(line)
    assert len(lines) > matched > len(lines) / 5


@given(st.sampled_from(OPENINGS + BAD_OPENINGS), st.text(), st.text())
@example('{"ballot_id":', "b1", ',"ranks":[]}\n')
@example('{"ballot_id":', 'q\\"', ',"ranks":[]}')
@example('{"ballot_id":', "ctl\x1f", "}")
@example('{"ballot_id":', "", "}")
def test_plain_id_matches_split_on_any_id(opening, raw_id, tail):
    """An id written as any text between quotes: when it holds no quote,
    backslash or control character the match reads it and the tail as
    ``reference_split`` does, and whatever the match reads in any line,
    ``reference_split`` reads the same."""
    line = f'{opening}"{raw_id}"{tail}'
    plain = _PLAIN_ID.match(line)
    plain_text = raw_id and not any(c in '"\\' or c < " " for c in raw_id)
    if plain_text and reference_split(line) != (None, None):
        assert plain is not None and plain.groups() == reference_split(line) == (raw_id, tail)
    if plain is not None:
        assert plain.groups() == reference_split(line)


@pytest.mark.parametrize(
    "accepted, refused, message",
    [
        ('[["H"]]', '["H"]', "line 2: each rank slot must be an array of candidate ids"),
        ('[["H"]]', '[{"H":1}]', "line 2: each rank slot must be an array of candidate ids"),
        ('[["1"]]', "[[1]]", "line 2: each rank slot must be an array of candidate ids"),
        ('[["1"]]', "[[true]]", "line 2: each rank slot must be an array of candidate ids"),
        ('[["H"]]', '[[["H"]]]', "line 2: each rank slot must be an array of candidate ids"),
        (
            '[["H"]]', '[["H"]],"raw_first_invalid":1',
            "line 2: raw_first_invalid must be true or false",
        ),
        ('[["H","M"]]', '["HM"]', "line 2: each rank slot must be an array of candidate ids"),
        ('[["H"]]', '[["H"],[1]]', "line 2: each rank slot must be an array of candidate ids"),
        ('[["H"]]', '[["H"],["X"]]', "ballot 'b2': unknown candidate id 'X'"),
    ],
    ids=[
        "string-slot", "object-slot", "number-id", "true-id", "unhashable", "flag-on-hit",
        "string-slot-as-tuple", "bad-slot-after-hit", "unknown-id-after-hit",
    ],
)
def test_pattern_table_collisions_refused(accepted, refused, message):
    """A line whose ranks or slots would meet an accepted array or slot in a
    naive table (``tuple("HM") == ("H", "M")``), or that hits the table and
    is bad in another part, is refused like any other."""
    text = (
        f'{{"ballot_id":"b1","ranks":{accepted}}}\n'
        f'{{"ballot_id":"b2","ranks":{refused}}}\n'
    )
    assert outcome(reference_parse_cvr, text) == message
    with pytest.raises(ParseError) as caught:
        parse_cvr(io.StringIO(text), MEMO_ROSTER)
    assert str(caught.value) == message


def test_unknown_id_first_seen_late_named():
    """Fifty lines of ten tails, all made of three slots, hit the slot table
    again and again; a new slot after those hits is still checked."""
    lines = [
        f'{{"ballot_id":"b{n}","ranks":' + json.dumps([["H"], ["M"]] + [[]] * (n % 10)) + "}"
        for n in range(50)
    ]
    lines.append('{"ballot_id":"late","ranks":[["H"],[],["M"],["M","X"]]}')
    with pytest.raises(ParseError, match=r"^ballot 'late': unknown candidate id 'X'$"):
        parse_cvr(io.StringIO("\n".join(lines)), MEMO_ROSTER)


# CVR lines as writers make them: compact, ``json.dumps``'s spaced default,
# and this package's own writer, which escapes non-ASCII ids
LINE_FORMS = {
    "compact": lambda ballot_id, ranks: json.dumps(
        {"ballot_id": ballot_id, "ranks": ranks}, separators=(",", ":")
    ) + "\n",
    "spaced": lambda ballot_id, ranks: json.dumps({"ballot_id": ballot_id, "ranks": ranks}) + "\n",
    "cvr_line": lambda ballot_id, ranks: cvr_line(ballot_id, cvr_tail(ranks, None)),
}


@pytest.mark.parametrize("form", LINE_FORMS)
def test_equal_ranks_share_one_slots_tuple(form):
    write = LINE_FORMS[form]
    text = write("a", [["M", "José"], []]) + write("b", [["1"]]) + write("c", [["M", "José"], []])
    a, b, c = parse_cvr(io.StringIO(text), MEMO_ROSTER)
    assert a.slots == c.slots == (("José", "M"), ())
    assert a.slots is c.slots and a.slots is not b.slots


@pytest.mark.parametrize("form", LINE_FORMS)
def test_equal_slots_share_one_tuple(form):
    """Equal slots are one tuple object across lines of different tails,
    whatever the order or repetition of their ids."""
    write = LINE_FORMS[form]
    text = "".join(
        write(f"b{n}", ranks)
        for n, ranks in enumerate(
            [[["M", "H"]], [["H", "M"], []], [[], ["H", "M", "H"]], [["H"], ["M", "H"]]]
        )
    )
    a, b, c, d = (ballot.slots for ballot in parse_cvr(io.StringIO(text), MEMO_ROSTER))
    assert a[0] == ("H", "M") and a[0] is b[0] is c[1] is d[1]
    assert b[1] == () and b[1] is c[0]


def counted_parse(text, monkeypatch):
    """What a parse with MEMO_ROSTER gives (see ``outcome``), and the texts
    it decoded: each text handed to the line decoder (``_decode_line``) or to
    ``json.loads`` (which ``_states_id`` calls), in order."""
    decoded = []
    decode_line, loads = cvr._decode_line, json.loads

    def counting_decode_line(line):
        decoded.append(line)
        return decode_line(line)

    def counting_loads(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(cvr, "_decode_line", counting_decode_line)
    monkeypatch.setattr(json, "loads", counting_loads)
    try:
        return outcome(parse_cvr, text), decoded
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("form", LINE_FORMS)
def test_each_tail_decoded_once(form, monkeypatch):
    """A CVR of k distinct tails runs k line decodes, one for the first line
    of each tail; a line that repeats a tail is not decoded. These tails
    escape "é", and an escape could spell ``ballot_id``, so each is decoded
    once more when it first repeats, to check it for an id of its own: 2k
    decodes in all."""
    write = LINE_FORMS[form]
    patterns = [[["José"]], [["H"], ["José"]], [["José", "H"]]]
    lines = [write(f"b{n}", patterns[n % 3]) for n in range(30)]
    assert "\\u00e9" in lines[0]
    parsed, decoded = counted_parse("".join(lines), monkeypatch)
    assert [text for text in decoded if text in lines] == lines[:3] and len(decoded) == 6
    assert [(ballot_id, slots) for ballot_id, slots, _ in parsed] == [
        (f"b{n}", RawBallot("", tuple(patterns[n % 3])).slots) for n in range(30)
    ]


@pytest.mark.parametrize("form", LINE_FORMS)
def test_ascii_tail_not_checked_for_an_id(form, monkeypatch):
    """A tail with neither an escape nor the text ``ballot_id`` cannot state
    an id of its own, so k distinct tails run k decodes in all."""
    write = LINE_FORMS[form]
    patterns = [[["1"]], [["H"], ["1"]], [["1", "H"]]]
    lines = [write(f"b{n}", patterns[n % 3]) for n in range(30)]
    parsed, decoded = counted_parse("".join(lines), monkeypatch)
    assert decoded == lines[:3]
    assert parsed == outcome(reference_parse_cvr, "".join(lines))


@pytest.mark.parametrize("name", ["ballot_id", "ballot\\u005fid"], ids=["literal", "escaped"])
@pytest.mark.parametrize("form", LINE_FORMS)
def test_tail_that_restates_id_parsed_in_full(form, name, monkeypatch):
    """A tail that states a ``ballot_id`` of its own, in either spelling, is
    never reused: each of its lines is decoded whole, so its later id counts
    and the repeat is refused as the reference refuses it."""
    write = LINE_FORMS[form]
    lines = [write(f"b{n}", [["H"]]).rstrip("}\n") + f',"{name}":"r"}}\n' for n in range(3)]
    text = "".join(lines)
    parsed, decoded = counted_parse(text, monkeypatch)
    assert parsed == outcome(reference_parse_cvr, text) == (
        "CVR ballots #1 and #2 share ballot_id 'r'"
    )
    # each line, and the tail once when it first repeats
    assert [text for text in decoded if text in lines] == lines and len(decoded) == 4


def test_unrepeated_tail_not_checked_for_an_id(monkeypatch):
    """A tail seen once is decoded only as part of its line; the check for an
    id of its own, which an escape calls for, waits until the tail repeats."""
    lines = [f'{{"ballot_id":"b{n}","ranks":[["H"],["M"]],"n":"\\u00e9{n}"}}\n' for n in range(5)]
    parsed, decoded = counted_parse("".join(lines), monkeypatch)
    assert decoded == lines and len(parsed) == 5


def test_pattern_table_is_per_call():
    """A tail or a slot accepted under one roster is checked again under the
    next: no validation outlives its parse."""
    text = '{"ballot_id":"b1","ranks":[["H"],["M"]]}\n'
    (ballot,) = parse_cvr(io.StringIO(text), MEMO_ROSTER)
    assert ballot.slots == (("H",), ("M",))
    only_h = load_roster(io.StringIO('{"candidates":[{"id":"H","name":"H"}]}'))
    with pytest.raises(ParseError, match=r"^ballot 'b1': unknown candidate id 'M'$"):
        parse_cvr(io.StringIO(text), only_h)
    with pytest.raises(ParseError, match=r"^ballot 'b2': unknown candidate id 'M'$"):
        parse_cvr(io.StringIO('{"ballot_id":"b2","ranks":[["M"],["H"]]}\n'), only_h)


class TestRawBallot:
    def test_slots_canonicalized(self):
        ballot = RawBallot("b", (("R", "H", "H"),))
        assert ballot.slots == (("H", "R"),)

    def test_zero_slots_read_back_clean_to_empty_and_round_trip(self, roster):
        """A ballot with every slot omitted is a ballot: it cleans to no
        ranking with an invalid (empty) first rank, and writes as it reads."""
        line = '{"ballot_id":"b","ranks":[]}\n'
        (ballot,) = parse_cvr(io.StringIO(line), roster)
        assert ballot == RawBallot("b", ())
        clean = sanitize_ballot(ballot, ALAMEDA, roster)
        assert clean.ranking == () and clean.raw_first_invalid is True
        sink = io.StringIO()
        emit_cvr([ballot], sink)
        assert sink.getvalue() == line


class TestFixtures:
    def test_table1_counts(self, table1):
        assert table1.total() == 26432
        assert table1.count(("H", "M", "R")) == 2283

    def test_table2_examples(self):
        ballots = load_builtin_fixture("table2-examples")
        assert len(ballots) == 6

    def test_synthetic_conserves_ballots(self, synthetic_raw):
        assert len(synthetic_raw) == 26569

    def test_synthetic_writein_first_place(self, synthetic_profile):
        tally = synthetic_profile.first_place_tally()
        assert tally["WI1"] + tally["WI2"] == 269

    def test_synthetic_references_only_roster_ids(self, synthetic_raw):
        roster = fixture_roster("oakland-full-synthetic")
        ids = set(roster.ids())
        assert all(
            cid in ids for ballot in synthetic_raw for slot in ballot.slots for cid in slot
        )

    def test_unknown_fixture_lists_available(self):
        with pytest.raises(UnknownFixtureError, match="oakland-table1"):
            load_builtin_fixture("nope")
        with pytest.raises(UnknownFixtureError):
            fixture_roster("nope")
