import io
import json

import pytest
from hypothesis import given, strategies as st

from rcv_forensics import (
    ParseError,
    RawBallot,
    UnknownFixtureError,
    ValidationError,
    emit_cvr,
    fixture_roster,
    load_builtin_fixture,
    load_roster,
    parse_cvr,
)

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

    def test_malformed_document_has_line_context(self):
        with pytest.raises(ParseError, match="line"):
            load_roster(io.StringIO('{"candidates": [}'))

    def test_all_writein_roster_rejected(self):
        doc = '{"candidates":[{"id":"W","name":"w","writein":true}]}'
        with pytest.raises(ValidationError):
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
        ]
        sink = io.StringIO()
        emit_cvr(ballots, sink)
        assert parse_cvr(io.StringIO(sink.getvalue()), roster) == ballots


@given(
    st.lists(
        st.lists(st.sampled_from(["H", "M", "R", "WI1", "WI2"]), max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_round_trip_identity_random(slots):
    roster = load_roster(io.StringIO(OAKLAND_ROSTER_JSON))
    ballots = [RawBallot("x", tuple(tuple(s) for s in slots))]
    sink = io.StringIO()
    emit_cvr(ballots, sink)
    assert parse_cvr(io.StringIO(sink.getvalue()), roster) == ballots


class TestRawBallot:
    def test_slots_canonicalized(self):
        ballot = RawBallot("b", (("R", "H", "H"),))
        assert ballot.slots == (("H", "R"),)

    def test_zero_slots_rejected(self):
        with pytest.raises(ValidationError):
            RawBallot("b", ())


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
