import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rcv_forensics import (
    RawBallots, fixture_roster, load_builtin_fixture, parse_cvr, sanitize as sanitize_module,
)
import rcv_forensics.cli as cli
from rcv_forensics.cli import main
from rcv_forensics.cvr import emit_cvr, roster_to_json_dict

from conftest import PERFBENCH, generated_cvr

ROSTER_JSON = json.dumps(
    {
        "candidates": [
            {"id": "A", "name": "Ann"},
            {"id": "B", "name": "Bob"},
            {"id": "C", "name": "Cal"},
            {"id": "D", "name": "Dee"},
            {"id": "E", "name": "Eve"},
        ]
    }
)


# argv, sha256 of the text report, sha256 of the JSON report (None where
# TestAudit.test_all_checks_json_bytes_pinned already pins it); {cvr} and
# {roster} stand for the benchmark's generated multiround CVR at seed 1
_REPORT_DIGESTS = [
    (
        "audit --input {cvr} --roster {roster} --checks all --spoiler-max-size 2",
        "e40e4e8135065d1e550632f6b9cc3b2b7fe61edf87177eb2cafb323926fc5583",
        "d9a238e5a9c12912ad9a4e511b3a18b1522997d4a9f1a897852b11cebc291dd3",
    ),
    (
        "audit --fixture oakland-table1 --checks all",
        "5f7bf2f09fcfc19b3819bae5d535c663b29729f828d8ba0ade38c4eb26bc81a6",
        None,
    ),
    (
        "audit --fixture oakland-full-synthetic --buggy-first-round --checks all",
        "71476864b7c12650ee5687454e6a2654e88c6ae82bf93c841a599630b59832f0",
        None,
    ),
    (
        "audit --fixture oakland-table1 --checks all --tie-policy lex",
        "954873f186ea68d2ec98d9e67fb30ce2870c8fe5f7a13e518b83e584c7218518",
        "1eaacd06b3d11ededaddff071e444a389ce28ce73e9abed8fa4dc561436068f2",
    ),
    (
        "audit --input {cvr} --roster {roster} --checks all --tie-policy lex",
        "89a68cb732a11c733743ab195ffc432778da16091dad5f8656e00f94a1bd0918",
        "c990dea2fc4fa452d67e90f5593e8273f4e4d14f3ac96ee61de79cdd810caa3a",
    ),
    (
        "compare --input {cvr} --roster {roster}",
        "f837e81f4cfac00d867665588c1cec4f7f9416b4f54677d9aa14fe7fdf457ad3",
        "f1fd2e94cda9cf9b3392c314dad0d1641aa9aed5d577f035f5ecd62f66993982",
    ),
    (
        "compare --fixture oakland-full-synthetic",
        "27dc8ec031d8f9d369a266092f115ee21007c711656d6545593180334b763bc9",
        "f093bfe0046866e5d95cd92470da6a2f546bb5ea7c1a8607f13dfec18d302a48",
    ),
    (
        "tabulate --fixture oakland-full-synthetic --method rcv --buggy-first-round",
        "097f296018eeba681af56add139bfba3972e647794c325964dcaf17a45f2afc1",
        "15141b356082c78bcbad39fa1e1324eece6fb2897432c1f89e8e71ecf641e2f0",
    ),
    (
        "tabulate --fixture oakland-table1 --method runoff",
        "910ce002b35e4686815acd68841d49e1b4c27da708810b832aff1dc8e32e78ac",
        "d98e77e3120796792729b844e7388c8ed706d746d365248486f377197f73818b",
    ),
    (
        "tabulate --fixture oakland-table1 --method plurality",
        "c17a5474eed1ecbe4c4f1d638275de4897fdd06890088e5f923eda9e5a5b7c12",
        "b95d339cf23a9f678a9117ba226dfc2216a6e068946bd542980e633a75da4276",
    ),
    (
        "tabulate --fixture oakland-table1 --method borda --model pessimistic --n-points 3",
        "3de69b7a980fe49892bb2387408aea60a1421750c8b0f92f54a86227ce5c59f1",
        "8a8b22bfa3b0b344d7025c80fed191971c7f9383b4d4c4e18af491316bff063c",
    ),
    (
        "tabulate --fixture oakland-table1 --method bucklin",
        "e5522eb57a3dc53600e8483c0fbcf1d3bb4c7442c352b5f4ebf401f7d2d2d61a",
        "dfc1ac1f494a2258c003d05ded2adafd6be57a397f98fc8de1fdeb75410430bf",
    ),
    (
        "tabulate --fixture oakland-full-synthetic --method runoff",
        "6f6d32813151e5d553f013c205657a9480b75f60cc11138e4d1cfe757c8dec94",
        "57e189f3c08b68a7fff9d6f6692c4a4ca476f218ca6edd0114a99f5e0fda0424",
    ),
    (
        "tabulate --fixture oakland-full-synthetic --method rcv",
        "4603a314f86824235d9417df8c5802f6145dd472f076ffdea5809e8c7560b5b6",
        "69a6dcb571a0f8afe59b3d11dba7484c7d25b0d0df16e85744402c7b0cb9fc3a",
    ),
    (
        "tabulate --fixture oakland-full-synthetic --method rcv"
        " --writein-policy treat-as-candidates",
        "42743e6aa7bcef6b655a529aa2c7158e28b91a9a6ac33240944b936b0a0b51fe",
        "c4740133ce37d792d7e466e679619cc07783c48cc347052c392edf1111d401f8",
    ),
    (
        "tabulate --fixture oakland-table1 --method condorcet",
        "fce72572324cb49c35ec324d6c0273553d0290817be37a79e75c65f50ae23a87",
        "603a9111defa49d960a3133dd44e03ea0f4b87adfdcb61f8b5eecf8655b8cc71",
    ),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

_PINNED = [
    (argv, fmt, digest)
    for argv, *digests in _REPORT_DIGESTS
    for fmt, digest in zip(("text", "json"), digests)
    if digest
]


@pytest.mark.parametrize(
    "argv, fmt, digest", _PINNED, ids=[f"{argv} --format {fmt}" for argv, fmt, _ in _PINNED]
)
def test_report_bytes_pinned(capsys, tmp_path, monkeypatch, argv, fmt, digest):
    """Every command's --output report, in both formats, stays byte for byte
    as it is; the text is rendered from the same document as the JSON."""
    if "{cvr}" in argv:
        cvr, roster = generated_cvr(tmp_path, monkeypatch)
        argv = argv.format(cvr=cvr, roster=roster)
    report = tmp_path / "report"
    code, _, _ = run(capsys, *argv.split(), "--format", fmt, "--output", str(report))
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_text_audit_lists_spoiler_tie_subsets(capsys, tmp_path, monkeypatch):
    """The text audit prints a line for each removed subset whose count
    tied, the subsets its JSON lists as tie_subsets."""
    cvr, roster = generated_cvr(tmp_path, monkeypatch)
    argv = (
        "audit", "--input", str(cvr), "--roster", str(roster),
        "--checks", "spoiler", "--spoiler-max-size", "2",
    )
    _, out, _ = run(capsys, *argv, "--format", "json")
    assert json.loads(out)["checks"]["spoiler"]["tie_subsets"] == [["C", "F"], ["C", "G"]]
    _, out, _ = run(capsys, *argv)
    assert [line for line in out.splitlines() if line.startswith("tie subset:")] == [
        "tie subset: remove {C, F}", "tie subset: remove {C, G}",
    ]


class TestTabulate:
    def test_rcv_table1_text(self, capsys):
        code, out, _ = run(capsys, "tabulate", "--fixture", "oakland-table1", "--method", "rcv")
        assert code == 0
        assert "winner: Mike Hutchinson (H)" in out
        assert "H=12421" in out and "R=12165" in out

    def test_rcv_table1_json(self, capsys):
        code, out, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-table1", "--method", "rcv", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["winner"] == "H"
        assert doc["rounds"][0]["tallies"] == {"H": 8227, "M": 8190, "R": 10015}
        assert doc["schema_version"] == 1

    def test_buggy_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-full-synthetic", "--method", "rcv",
            "--buggy-first-round", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["winner"] == "R"
        assert doc["rounds"][1]["tallies"] == {"H": 8112, "M": 8153, "R": 9954}

    def test_borda_pessimistic(self, capsys):
        code, out, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-table1", "--method", "borda",
            "--model", "pessimistic", "--n-points", "3", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["scores"] == {"H": 23743, "M": 23123, "R": 24517}
        assert doc["winner"] == "R"

    @pytest.mark.parametrize("n_points", ["0", "1", "-3"])
    def test_borda_scale_below_two_is_data_error(self, capsys, n_points):
        code, out, err = run(
            capsys,
            "tabulate", "--fixture", "oakland-table1", "--method", "borda",
            "--n-points", n_points,
        )
        assert code == 3
        assert out == ""
        assert err == "error: n_points must be at least 2\n"

    def test_condorcet(self, capsys):
        code, out, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-table1", "--method", "condorcet",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["condorcet_winner"] is None
        assert doc["cycle"] == ["H", "R", "M"]
        assert doc["minimax_best"] == "H"

    def test_text_and_json_numbers_agree(self, capsys):
        _, text_out, _ = run(capsys, "tabulate", "--fixture", "oakland-table1", "--method", "rcv")
        _, json_out, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-table1", "--method", "rcv", "--format", "json",
        )
        doc = json.loads(json_out)
        for rnd in doc["rounds"]:
            for cid, votes in rnd["tallies"].items():
                assert f"{cid}={votes}" in text_out

    def test_reruns_byte_identical(self, capsys):
        _, first, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-full-synthetic", "--method", "rcv",
            "--format", "json",
        )
        _, second, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-full-synthetic", "--method", "rcv",
            "--format", "json",
        )
        assert first == second

    def test_missing_method_usage_error(self, capsys):
        code, _, err = run(capsys, "tabulate", "--fixture", "oakland-table1")
        assert code == 2
        assert "method" in err

    def test_missing_source_usage_error(self, capsys):
        code, _, _ = run(capsys, "tabulate", "--method", "rcv")
        assert code == 2

    def test_input_without_roster_usage_error(self, capsys, tmp_path):
        cvr = tmp_path / "cvr.jsonl"
        cvr.write_text('{"ballot_id":"b1","ranks":[["A"]]}\n')
        code, out, err = run(capsys, "tabulate", "--input", str(cvr), "--method", "rcv")
        assert code == 2
        assert out == ""
        assert err == "error: tabulate: --roster is required with --input\n"

    def test_unknown_fixture_is_data_error(self, capsys):
        code, _, err = run(capsys, "tabulate", "--fixture", "oakland-table1x", "--method", "rcv")
        assert code == 2  # argparse rejects the unknown choice

    def test_tie_exit_code(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(
            '{"candidates":[{"id":"A","name":"Ann"},{"id":"B","name":"Bob"}]}'
        )
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text(
            '{"ballot_id":"1","ranks":[["A"]]}\n{"ballot_id":"2","ranks":[["B"]]}\n'
        )
        code, _, err = run(
            capsys,
            "tabulate", "--input", str(cvr), "--roster", str(roster), "--method", "rcv",
        )
        assert code == 4
        assert "tie among A, B" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text('{"candidates":[{"id":"A","name":"Ann"}]}')
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text("garbage\n")
        code, _, err = run(
            capsys,
            "tabulate", "--input", str(cvr), "--roster", str(roster), "--method", "rcv",
        )
        assert code == 3
        assert "line 1" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "tabulate", "--fixture", "oakland-table1", "--method", "rcv",
            "--format", "json", "--output", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["winner"] == "H"


class TestSanitize:
    def test_table2_fixture(self, capsys, tmp_path):
        cleaned = tmp_path / "clean.jsonl"
        code, out, _ = run(
            capsys,
            "sanitize", "--fixture", "table2-examples", "--policy", "alameda",
            "--output", str(cleaned),
        )
        assert code == 0
        lines = [json.loads(l) for l in cleaned.read_text().splitlines()]
        assert len(lines) == 6
        assert all(l["ranks"] == [["A"], ["B"]] for l in lines)
        assert "ballots: 6" in out

    def test_alaska_policy_on_file(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(ROSTER_JSON)
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text('{"ballot_id":"b1","ranks":[["A"],[],[],[],["B"]]}\n')
        cleaned = tmp_path / "clean.jsonl"
        code, _, _ = run(
            capsys,
            "sanitize", "--input", str(cvr), "--roster", str(roster),
            "--policy", "alaska", "--output", str(cleaned),
        )
        assert code == 0
        (line,) = [json.loads(l) for l in cleaned.read_text().splitlines()]
        assert line["ranks"] == [["A"]]

    def test_minneapolis_stats_json(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(ROSTER_JSON)
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text('{"ballot_id":"b1","ranks":[["A"],["B","C"],["D"]]}\n')
        cleaned = tmp_path / "clean.jsonl"
        code, out, _ = run(
            capsys,
            "sanitize", "--input", str(cvr), "--roster", str(roster),
            "--policy", "minneapolis", "--format", "json", "--output", str(cleaned),
        )
        doc = json.loads(out)
        assert doc["stats"]["ballots_with_overvote"] == 1
        (line,) = [json.loads(l) for l in cleaned.read_text().splitlines()]
        assert line["ranks"] == [["A"], ["D"]]

    def test_synthetic_reports_published_gap(self, capsys, tmp_path):
        cleaned = tmp_path / "clean.jsonl"
        code, out, _ = run(
            capsys,
            "sanitize", "--fixture", "oakland-full-synthetic", "--format", "json",
            "--output", str(cleaned),
        )
        doc = json.loads(out)
        (note,) = doc["notes"]
        assert note["published"] == 235
        assert note["computed"] == 213
        assert note["status"] == "unresolved discrepancy"

    @pytest.mark.parametrize(
        "fmt, stats_digest",
        [
            ("text", "6682bb292a1b0e208c8ebadcecc5a0b127b08c543d177fd7dd3436b96d37aa99"),
            ("json", "3d4bd1b17ab1b67dc69a65bfee786326f11b0bf5268d57335b38189883717a77"),
        ],
        ids=["text", "json"],
    )
    def test_synthetic_bytes_pinned(self, capsys, tmp_path, fmt, stats_digest):
        cleaned = tmp_path / "clean.jsonl"
        code, out, _ = run(
            capsys,
            "sanitize", "--fixture", "oakland-full-synthetic", "--format", fmt,
            "--output", str(cleaned),
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stats_digest
        assert (
            hashlib.sha256(cleaned.read_bytes()).hexdigest()
            == "f62c3eb94ed586a76fc4f6d4776ccf78bd8d62d423cbcfffde26d3c32048cbc0"
        )

    def test_sanitizes_each_ballot_once(self, capsys, monkeypatch, tmp_path, synthetic_raw):
        """The command sanitizes once per raw pattern, not once per line: six
        ``_clean`` calls for the six distinct ballots of table2, and 22 for the
        26,569 lines of the synthetic CVR, each on its pattern's slots in
        pattern order; the clean CVR keeps its pinned bytes."""
        calls = []
        original = sanitize_module._clean

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(sanitize_module, "_clean", counted)
        code, _, _ = run(capsys, "sanitize", "--fixture", "table2-examples")
        assert code == 0
        table2 = RawBallots.of(load_builtin_fixture("table2-examples"))
        assert calls == [slots for slots, _ in table2.patterns] and len(calls) == 6
        roster, cvr = tmp_path / "roster.json", tmp_path / "votes.jsonl"
        roster.write_text(json.dumps(roster_to_json_dict(fixture_roster("oakland-full-synthetic"))))
        with open(cvr, "w", encoding="utf-8") as sink:
            emit_cvr(synthetic_raw, sink)
        cleaned = tmp_path / "clean.jsonl"
        calls.clear()
        code, _, _ = run(
            capsys,
            "sanitize", "--input", str(cvr), "--roster", str(roster), "--output", str(cleaned),
        )
        assert code == 0
        assert len(calls) == 22 and len(cvr.read_text(encoding="utf-8").splitlines()) == 26569
        with open(cvr, encoding="utf-8") as stream:
            table = parse_cvr(stream, fixture_roster("oakland-full-synthetic"))
        assert calls == [slots for slots, _ in table.patterns]
        assert (
            hashlib.sha256(cleaned.read_bytes()).hexdigest()
            == "f62c3eb94ed586a76fc4f6d4776ccf78bd8d62d423cbcfffde26d3c32048cbc0"
        )

    def test_profile_fixture_rejected(self, capsys):
        code, _, err = run(capsys, "sanitize", "--fixture", "oakland-table1")
        assert code == 2
        assert "aggregated profile" in err

    def test_clean_file_reads_as_its_source(self, capsys, tmp_path):
        """The clean CVR states each ballot's as-cast first-rank flag, so the
        misconfigured count of the clean file is the fixture's, and
        re-sanitizing it finds the same 213 invalid first ranks."""
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps(roster_to_json_dict(fixture_roster("oakland-full-synthetic"))))
        cleaned, again = tmp_path / "clean.jsonl", tmp_path / "again.jsonl"
        source = ["--input", str(cleaned), "--roster", str(roster)]
        fixture = ["--fixture", "oakland-full-synthetic"]
        assert run(capsys, "sanitize", *fixture, "--output", str(cleaned))[0] == 0
        tabulate = ["tabulate", "--method", "rcv", "--buggy-first-round", "--format", "json"]
        assert run(capsys, *tabulate, *source) == run(capsys, *tabulate, *fixture)
        code, out, _ = run(capsys, "sanitize", *source, "--format", "json", "--output", str(again))
        assert code == 0
        assert json.loads(out)["stats"]["invalid_first_with_official"] == 213
        assert again.read_bytes() == cleaned.read_bytes()

    @pytest.mark.parametrize("policy", ["alameda", "minneapolis", "alaska"])
    def test_sanitize_of_clean_output_is_identity(self, capsys, tmp_path, policy):
        roster = tmp_path / "roster.json"
        roster.write_text(
            '{"candidates":[{"id":"A","name":"A"},{"id":"B","name":"B"},'
            '{"id":"C","name":"C"},{"id":"W","name":"W","writein":true}]}'
        )
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text(
            '{"ballot_id":"1","ranks":[["A","B"],["C"]]}\n'
            '{"ballot_id":"2","ranks":[[],[],["B"]]}\n'
            '{"ballot_id":"3","ranks":[["W"],["A"]]}\n'
            '{"ballot_id":"4","ranks":[]}\n'
            '{"ballot_id":"5","ranks":[["A"],["A"],["B"]]}\n'
            '{"ballot_id":"6","ranks":[["B"]],"raw_first_invalid":true}\n'
            '{"ballot_id":"7","ranks":[["A","C"]]}\n'
        )
        outputs = []
        for source in (cvr, tmp_path / "clean1.jsonl"):
            outputs.append(tmp_path / f"clean{len(outputs) + 1}.jsonl")
            code, _, _ = run(
                capsys, "sanitize", "--input", str(source), "--roster", str(roster),
                "--policy", policy, "--output", str(outputs[-1]),
            )
            assert code == 0
        first, second = (path.read_text() for path in outputs)
        assert '"ranks":[],"raw_first_invalid":false' in first
        assert '"ranks":[],"raw_first_invalid":true' in first
        assert second == first


class TestCompare:
    def test_table1_rows(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--fixture", "oakland-table1", "--format", "json"
        )
        doc = json.loads(out)
        rows = {r["method"]: r for r in doc["rows"]}
        assert rows["rcv"]["winner"] == "H"
        assert rows["plurality"]["winner"] == "R"
        assert rows["borda-optimistic"]["winner"] == "H"
        assert rows["borda-pessimistic"]["winner"] == "R"
        assert rows["bucklin-2"]["winner"] == "H"
        assert rows["condorcet"]["winner"] is None
        assert "cycle" in rows["condorcet"]["detail"]
        assert rows["minimax"]["winner"] == "H"

    def test_synthetic_runoff_differs_from_rcv(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--fixture", "oakland-full-synthetic", "--format", "json"
        )
        rows = {r["method"]: r for r in json.loads(out)["rows"]}
        assert rows["runoff"]["winner"] == "R"
        assert rows["rcv"]["winner"] == "H"

    def test_unanimous_profile_all_agree(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text('{"candidates":[{"id":"A","name":"Ann"},{"id":"B","name":"Bob"}]}')
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text(
            "".join(
                f'{{"ballot_id":"{i}","ranks":[["A"],["B"]]}}\n' for i in range(2)
            )
            + '{"ballot_id":"w","ranks":[["A"]]}\n'
            + '{"ballot_id":"x","ranks":[["B"],["A"]]}\n'
        )
        code, out, _ = run(
            capsys, "compare", "--input", str(cvr), "--roster", str(roster),
            "--format", "json",
        )
        rows = {r["method"]: r for r in json.loads(out)["rows"]}
        assert all(r["winner"] == "A" for r in rows.values())

    def test_runoff_not_applicable_keeps_report(self, capsys, tmp_path):
        """With every first choice on A, runoff has no second finalist; its row
        says so and the other rows are still reported."""
        roster = tmp_path / "roster.json"
        roster.write_text('{"candidates":[{"id":"A","name":"Ann"},{"id":"B","name":"Bob"}]}')
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text(
            '{"ballot_id":"1","ranks":[["A"],["B"]]}\n{"ballot_id":"2","ranks":[["A"]]}\n'
        )
        source = ["--input", str(cvr), "--roster", str(roster)]
        code, out, _ = run(capsys, "compare", *source, "--format", "json")
        assert code == 0
        rows = {r["method"]: r for r in json.loads(out)["rows"]}
        assert rows["runoff"] == {
            "method": "runoff",
            "winner": None,
            "detail": "plurality runoff needs at least two candidates receiving votes",
        }
        assert rows["rcv"]["winner"] == "A"
        code, out, _ = run(capsys, "compare", *source)
        assert "none [plurality runoff needs at least two candidates receiving votes]" in out
        code, _, err = run(capsys, "tabulate", *source, "--method", "runoff")
        assert code == 3
        assert err == "error: plurality runoff needs at least two candidates receiving votes\n"


class TestAudit:
    def test_table1_all_checks_json(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--fixture", "oakland-table1", "--checks", "all", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["findings"] is True
        assert doc["checks"]["condorcet"]["cycle"] == ["H", "R", "M"]
        spoiler = doc["checks"]["spoiler"]["witnesses"]
        assert spoiler == [
            {"kind": "spoiler", "removed": ["R"], "original_winner": "H", "new_winner": "M"}
        ]
        down = doc["checks"]["monotonicity"]["downward"]["witnesses"]
        assert any(
            w["ballot_type"] == ["R", "M", "H"] and w["min_count"] == 38 for w in down
        )
        up = doc["checks"]["monotonicity"]["upward"]["witnesses"]
        assert any(
            w["ballot_type"] == ["R", "H", "M"] and w["min_count"] == 1826 for w in up
        )
        comp = doc["checks"]["compromise"]["witnesses"]
        assert any(
            w["promoted_candidate"] == "M"
            and w["count"] <= 1800 <= w["max_count"]
            and w["new_winner"] == "M"
            for w in comp
        )
        (discrepancy,) = doc["discrepancies"]
        assert discrepancy["published"] == 598
        assert discrepancy["computed"] == 299
        assert discrepancy["status"] == "unresolved discrepancy"

    def test_text_marks_an_invalid_first_rank(self, capsys):
        """table2-examples holds A > B ballots with and without the
        raw_first_invalid flag, and each gives a tie boundary at t=3: the text
        report tells the two apart, as the JSON report does."""
        code, out, _ = run(capsys, "audit", "--fixture", "table2-examples")
        assert code == 0
        boundaries = [line for line in out.splitlines() if line.startswith("tie boundary:")]
        assert boundaries == [
            "tie boundary: promote B at t=3 on A > B (tied: C, D, E)",
            "tie boundary: promote B at t=3 on A > B [first rank invalid] (tied: C, D, E)",
        ]

    def test_buggy_noshow_check(self, capsys):
        code, out, _ = run(
            capsys,
            "audit", "--fixture", "oakland-full-synthetic", "--buggy-first-round",
            "--checks", "noshow", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        witnesses = doc["checks"]["noshow"]["witnesses"]
        assert any(
            w["ballot_type"] == ["M", "H", "R"] and w["count"] == 42 for w in witnesses
        )

    def test_two_candidate_profile_no_findings(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text('{"candidates":[{"id":"A","name":"Ann"},{"id":"B","name":"Bob"}]}')
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text(
            '{"ballot_id":"1","ranks":[["A"],["B"]]}\n'
            '{"ballot_id":"2","ranks":[["A"]]}\n'
            '{"ballot_id":"3","ranks":[["B"]]}\n'
        )
        code, out, _ = run(
            capsys,
            "audit", "--input", str(cvr), "--roster", str(roster), "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["findings"] is False

    def test_fail_on_findings(self, capsys):
        code, _, _ = run(
            capsys,
            "audit", "--fixture", "oakland-table1", "--checks", "spoiler",
            "--fail-on-findings",
        )
        assert code == 1

    def test_unknown_check_usage_error(self, capsys):
        code, _, err = run(
            capsys, "audit", "--fixture", "oakland-table1", "--checks", "sorcery"
        )
        assert code == 2
        assert "sorcery" in err

    @pytest.mark.parametrize("checks", ["", ",", " , "], ids=["empty", "comma", "blank"])
    def test_no_check_named_usage_error(self, capsys, checks):
        code, out, err = run(
            capsys, "audit", "--fixture", "oakland-table1", "--checks", checks,
            "--fail-on-findings",
        )
        assert code == 2
        assert out == ""
        assert err == "error: audit: --checks must name at least one check\n"

    def test_base_tie_exits_4(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text('{"candidates":[{"id":"A","name":"Ann"},{"id":"B","name":"Bob"}]}')
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text(
            '{"ballot_id":"1","ranks":[["A"]]}\n{"ballot_id":"2","ranks":[["B"]]}\n'
        )
        code, _, err = run(
            capsys, "audit", "--input", str(cvr), "--roster", str(roster)
        )
        assert code == 4
        assert "tie" in err

    @pytest.mark.parametrize(
        "source, digest",
        [
            (
                ["--fixture", "oakland-table1"],
                "3c75e241b3bca851e512249114031bfb5d1daf52b6cce133773c5e22c91aec47",
            ),
            (
                ["--fixture", "oakland-full-synthetic", "--buggy-first-round"],
                "f6db96305d8057c83a4b9cd17cc54b7316700f60f5ec7e6ed759f6ba5a9ba0ec",
            ),
        ],
        ids=["table1", "synthetic-buggy"],
    )
    def test_all_checks_json_bytes_pinned(self, capsys, tmp_path, source, digest):
        """Refactors of the scans and serializers must leave these reports
        byte for byte as they are."""
        report = tmp_path / "audit.json"
        code, _, _ = run(
            capsys,
            "audit", *source, "--checks", "all", "--format", "json",
            "--output", str(report),
        )
        assert code == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_spoiler_max_size_below_one_usage_error(self, capsys, size):
        code, out, err = run(
            capsys,
            "audit", "--fixture", "oakland-table1", "--checks", "spoiler",
            "--spoiler-max-size", size, "--fail-on-findings",
        )
        assert code == 2
        assert "--spoiler-max-size" in err
        assert out == ""

    def test_spoiler_max_size_from_config_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"fixture": "oakland-table1", "spoiler_max_size": 0}))
        code, _, err = run(capsys, "audit", "--config", str(config), "--checks", "spoiler")
        assert code == 2
        assert "--spoiler-max-size" in err

    @pytest.mark.parametrize("size, code", [(3, 2), (1, 0)])
    def test_spoiler_subsets_bounded(self, capsys, tmp_path, monkeypatch, size, code):
        """1,101 candidates leave 1,100 losers: 1,100 subsets of one are
        searched, but C(1100, 3) subsets up to size 3 are refused before the
        search starts."""
        ids = [f"c{i}" for i in range(1101)]
        roster = tmp_path / "roster.json"
        roster.write_text(json.dumps({"candidates": [{"id": c, "name": c} for c in ids]}))
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text('{"ballot_id": "b0", "ranks": [["c0"]]}\n')
        if code:
            monkeypatch.setattr(cli, "find_spoilers", lambda *a: pytest.fail("search started"))
        got, out, err = run(
            capsys, "audit", "--input", str(cvr), "--roster", str(roster),
            "--checks", "spoiler", "--spoiler-max-size", str(size),
        )
        assert got == code
        if code:
            assert out == ""
            assert err == (
                "error: audit: --spoiler-max-size 3 over 1100 losing candidates "
                "gives more than 100,000 subsets to count\n"
            )
        else:
            assert err == "" and "spoiler" in out

    def test_text_mentions_unresolved_discrepancy(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--fixture", "oakland-table1", "--checks", "monotonicity"
        )
        assert "published 598 vs computed 299" in out
        assert "unresolved discrepancy" in out


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    import rcv_forensics

    # the child imports the same package as this process, installed or not
    src = str(Path(rcv_forensics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "rcv_forensics.cli", "tabulate",
         "--fixture", "oakland-table1", "--method", "rcv", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0
    assert json.loads(completed.stdout)["winner"] == "H"


@pytest.mark.parametrize(
    "source",
    ["--fixture oakland-table1", "--fixture oakland-full-synthetic --buggy-first-round"],
)
def test_audit_bytes_do_not_follow_the_hash_seed(source):
    """String hashes, and so the order of sets of ids, change with
    PYTHONHASHSEED from one process to the next; the report must not."""
    import subprocess
    import sys

    import rcv_forensics

    src = str(Path(rcv_forensics.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "rcv_forensics.cli", "audit", *source.split(),
            "--checks", "all", "--format", "json"]
    reports = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
        completed = subprocess.run(argv, capture_output=True, env=env)
        assert completed.returncode == 0, completed.stderr
        reports.append(completed.stdout)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["findings"]


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"fixture": "oakland-table1", "method": "rcv", "format": "json"})
        )
        code, out, _ = run(capsys, "tabulate", "--config", str(config))
        assert code == 0
        assert json.loads(out)["winner"] == "H"

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"fixture": "oakland-table1", "method": "rcv"}))
        code, out, _ = run(
            capsys, "tabulate", "--config", str(config), "--method", "plurality",
            "--format", "json",
        )
        assert json.loads(out)["winner"] == "R"

    def test_bad_config_is_data_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1,2,3]")
        code, _, err = run(capsys, "tabulate", "--config", str(config))
        assert code == 3

    def _run_config(self, capsys, tmp_path, config, *argv):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        return run(capsys, "tabulate", "--config", str(path), *argv)

    @pytest.mark.parametrize(
        "extra, flag",
        [
            ({"method": "bucklin", "k": "abc"}, "--k"),
            ({"method": "rcv", "tie_policy": "coinflip"}, "--tie-policy"),
            ({"method": "rcv", "buggy_first_round": "yes", "format": "json"}, "--buggy-first-round"),
        ],
        ids=["k-not-int", "tie-policy-choice", "switch-with-value"],
    )
    def test_bad_value_is_usage_error(self, capsys, tmp_path, extra, flag):
        """Config values are checked like the flags they stand for."""
        code, out, err = self._run_config(
            capsys, tmp_path, {"fixture": "oakland-table1", **extra}
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        (error,) = [line for line in err.splitlines() if "error:" in line]
        assert flag in error

    def test_true_is_a_switch_and_false_leaves_it_out(self, capsys, tmp_path):
        base = {"fixture": "oakland-full-synthetic", "method": "rcv", "format": "json"}
        _, on, _ = self._run_config(capsys, tmp_path, {**base, "buggy_first_round": True})
        _, off, _ = self._run_config(capsys, tmp_path, {**base, "buggy_first_round": False})
        assert json.loads(on)["winner"] == "R"
        assert json.loads(off)["winner"] == "H"

    def test_unknown_keys_ignored(self, capsys, tmp_path):
        config = {
            "fixture": "oakland-table1", "method": "rcv", "format": "json",
            "no_such_option": 3, "config": "elsewhere.json", "spoiler_max_size": 0,
            "command": "audit", "func": "cmd_audit",
        }
        code, out, _ = self._run_config(capsys, tmp_path, config)
        assert code == 0
        assert json.loads(out)["winner"] == "H"

    def test_non_utf8_config_is_data_error(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_bytes(b'{"fixture": "\xff"}')
        code, _, err = run(capsys, "tabulate", "--config", str(config))
        assert code == 3
        assert err.startswith("error: cannot read config:")
        assert "Traceback" not in err


class TestNonUtf8Input:
    def test_cvr(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(ROSTER_JSON)
        cvr = tmp_path / "votes.jsonl"
        cvr.write_bytes(b'{"ballot_id":"1","ranks":[["A"]]}\n\xff\xfe\n')
        code, _, err = run(
            capsys, "tabulate", "--input", str(cvr), "--roster", str(roster), "--method", "rcv"
        )
        assert code == 3
        assert err == "error: CVR is not UTF-8 text: invalid start byte\n"

    def test_cvr_opening_with_a_bom(self, capsys, tmp_path):
        """A BOM is not stripped: the first line is refused with the error
        ``json.loads`` gives it."""
        roster = tmp_path / "roster.json"
        roster.write_text(ROSTER_JSON)
        cvr = tmp_path / "votes.jsonl"
        cvr.write_bytes(b'\xef\xbb\xbf{"ballot_id":"1","ranks":[["A"]]}\n')
        code, out, err = run(
            capsys, "tabulate", "--input", str(cvr), "--roster", str(roster), "--method", "rcv"
        )
        assert (code, out) == (3, "")
        assert err == "error: line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"

    def test_roster(self, capsys, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_bytes(b'{"candidates":[{"id":"A","name":"\xff"}]}')
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text('{"ballot_id":"1","ranks":[["A"]]}\n')
        code, _, err = run(
            capsys, "sanitize", "--input", str(cvr), "--roster", str(roster)
        )
        assert code == 3
        assert err == "error: roster is not UTF-8 text: invalid start byte\n"


def test_non_boolean_writein_is_data_error(capsys, tmp_path):
    """A string "false" is not false: the roster is refused, not read as a
    write-in that round 0 would eliminate."""
    roster = tmp_path / "roster.json"
    roster.write_text(
        '{"candidates":[{"id":"H","name":"H","writein":"false"},'
        '{"id":"M","name":"M"},{"id":"R","name":"R","writein":0}]}'
    )
    cvr = tmp_path / "votes.jsonl"
    cvr.write_text(
        '{"ballot_id":"1","ranks":[["H"],["M"]]}\n'
        '{"ballot_id":"2","ranks":[["H"]]}\n'
        '{"ballot_id":"3","ranks":[["M"]]}\n'
    )
    code, out, err = run(
        capsys, "tabulate", "--input", str(cvr), "--roster", str(roster), "--method", "rcv"
    )
    assert code == 3
    assert out == ""
    assert err == "error: roster candidate 'H': writein must be true or false\n"


@pytest.mark.parametrize("command", [["sanitize"], ["tabulate", "--method", "rcv"]])
def test_repeated_ballot_id_is_data_error(capsys, tmp_path, command):
    """A CVR line that repeats a ballot_id is refused, not counted twice."""
    roster = tmp_path / "roster.json"
    roster.write_text(ROSTER_JSON)
    cvr = tmp_path / "votes.jsonl"
    cvr.write_text(
        '{"ballot_id":"1","ranks":[["A"]]}\n'
        '{"ballot_id":"2","ranks":[["B"]]}\n'
        '{"ballot_id":"1","ranks":[["A"]]}\n'
    )
    code, out, err = run(capsys, *command, "--input", str(cvr), "--roster", str(roster))
    assert code == 3
    assert out == ""
    assert err == "error: CVR ballots #1 and #3 share ballot_id '1'\n"


@pytest.mark.parametrize("kind", ["cvr", "roster", "config"])
def test_deeply_nested_json_is_data_error(capsys, tmp_path, kind):
    """JSON nested past the parser's recursion limit is unreadable data."""
    deep = "[" * 100_000
    roster = tmp_path / "roster.json"
    roster.write_text(deep if kind == "roster" else ROSTER_JSON)
    cvr = tmp_path / "votes.jsonl"
    cvr.write_text((deep if kind == "cvr" else '{"ballot_id":"1","ranks":[["A"]]}') + "\n")
    config = tmp_path / "config.json"
    config.write_text(deep)
    argv = ["tabulate", "--input", str(cvr), "--roster", str(roster), "--method", "rcv"]
    if kind == "config":
        argv += ["--config", str(config)]
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_long_majority_cycle_exits_cleanly(capsys, tmp_path):
    """Three ballots over 1,101 candidates make a majority cycle through all
    of them (c0 > c1 > ... > c1100 > c0), deeper than the interpreter's
    recursion limit: the cycle search must report it, not overflow."""
    ids = [f"c{i}" for i in range(1101)]
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps({"candidates": [{"id": c, "name": c} for c in ids]}))
    cvr = tmp_path / "votes.jsonl"
    with open(cvr, "w", encoding="utf-8") as sink:
        for n, order in enumerate((ids, ids[-1:] + ids[:-1], ids[1:] + ids[:1])):
            sink.write(json.dumps({"ballot_id": f"b{n}", "ranks": [[c] for c in order]}) + "\n")
    code, out, err = run(
        capsys, "tabulate", "--method", "condorcet", "--input", str(cvr), "--roster", str(roster)
    )
    assert (code, err) == (0, "")
    assert "majority cycle: " + " > ".join(ids + ids[:1]) + "\n" in out


class TestEmptyProfile:
    @pytest.fixture
    def empty_source(self, tmp_path):
        roster = tmp_path / "roster.json"
        roster.write_text(ROSTER_JSON)
        cvr = tmp_path / "votes.jsonl"
        cvr.write_text("")
        return ["--input", str(cvr), "--roster", str(roster)]

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["tabulate", "--method", method]
                for method in ("rcv", "plurality", "runoff", "borda", "bucklin", "condorcet")
            ),
            ["compare"],
            ["audit"],
        ],
        ids=lambda argv: argv[-1],
    )
    def test_tabulating_commands_exit_3(self, capsys, empty_source, argv):
        code, out, err = run(capsys, *argv, *empty_source)
        assert code == 3
        assert out == ""
        assert err == "error: cannot tabulate an empty profile\n"

    def test_sanitize_succeeds(self, capsys, empty_source):
        code, out, err = run(capsys, "sanitize", *empty_source)
        assert code == 0
        assert out == ""
        assert "ballots: 0" in err


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    """The traced benchmark wraps names of ``cli`` by lookup; every one must
    still exist and be called through ``cli``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["tabulate", "--fixture", "table2-examples", "--method", "plurality",
                     "--output", os.devnull]) == 0
    finally:
        tracer.uninstall()
    names = {span[2] for span in tracer.spans}
    assert {"cli.tabulate", "fixtures.load", "sanitize.sanitize_all", "methods.compare"} <= names


def test_benchmark_tracer_counts_ingest(monkeypatch, tmp_path):
    """The traced benchmark counts ingest work from what ``cli.parse_cvr``
    returns (its ``len``) and what ``cli.sanitize_all`` takes (its ballots'
    ``slots``) and returns (the profile's ``entries``). A traced sanitize,
    tabulate and audit of a small CVR must give those counters their
    values, so an ingest change that breaks the contract fails here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    roster, cvr = tmp_path / "roster.json", tmp_path / "votes.jsonl"
    roster.write_text(ROSTER_JSON)
    cvr.write_text(
        '{"ballot_id":"b1","ranks":[["A"],["B"]]}\n'
        '{"ballot_id":"b2","ranks":[["A"],["B"]]}\n'
        "\n"
        '{"ballot_id":"b3","ranks":[["B"],["A"]]}\n'
        '{"ballot_id":"b4","ranks":[["C"],["B"]]}\n'
        '{"ballot_id":"b5","ranks":[["A"],[],["C"]]}\n'
        '{"ballot_id":"b6","ranks":[["A"],["B"]],"raw_first_invalid":true}\n'
    )
    source = ["--input", str(cvr), "--roster", str(roster)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (
            ["sanitize", *source, "--output", os.devnull],
            ["tabulate", *source, "--method", "rcv", "--output", os.devnull],
            ["audit", *source, "--checks", "all", "--output", os.devnull],
        ):
            assert main(argv) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # three parses of six ballots; four distinct slots tuples, and five
    # (ranking, flag) types once b1, b2 and b6 are told apart by b6's flag
    assert {key: metrics[key] for key in (
        "cvr.lines", "sanitize.ballots", "sanitize.distinct_raw", "sanitize.profile_types",
    )} == {
        "cvr.lines": 18, "sanitize.ballots": 6, "sanitize.distinct_raw": 4,
        "sanitize.profile_types": 5,
    }


# The robustness property: argv mostly made of the command's real flags, with
# junk values and tokens mixed in. Sources are cheap (table2-examples and
# small generated files), so each example runs in milliseconds.
_VALUES = {
    "--fixture": ["table2-examples", "oakland"],
    "--input": ["votes.jsonl", "missing.jsonl", "roster.json"],
    "--roster": ["roster.json", "votes.jsonl"],
    "--policy": ["alameda", "minneapolis", "alaska"],
    "--skip-policy": ["ignore-all", "two-consecutive-terminate"],
    "--overvote-policy": ["truncate", "skip"],
    "--config": ["run.json", "votes.jsonl"],
    "--format": ["text", "json"],
    "--output": ["out.txt", "no/such/dir/out.txt", ""],
    "--writein-policy": ["eliminate-first", "treat-as-candidates"],
    "--tie-policy": ["error", "lex"],
    "--method": ["rcv", "plurality", "runoff", "borda", "bucklin", "condorcet"],
    "--model": ["optimistic", "pessimistic"],
    "--n-points": ["1", "2", "3", "5", "-3"],
    "--k": ["0", "1", "2", "3"],
    "--checks": ["all", "spoiler,noshow", "condorcet", "monotonicity,compromise", ","],
    "--spoiler-max-size": ["0", "1", "2", "9"],
    "--buggy-first-round": None,
    "--fail-on-findings": None,
}
_SOURCE = ["--policy", "--skip-policy", "--overvote-policy", "--format", "--output"]
_RCV = ["--writein-policy", "--tie-policy", "--buggy-first-round"]
_FLAGS = {
    "sanitize": _SOURCE,
    "tabulate": _SOURCE + _RCV + ["--method", "--method", "--model", "--n-points", "--k"],
    "compare": _SOURCE,
    "audit": _SOURCE + _RCV + ["--checks", "--spoiler-max-size", "--fail-on-findings"],
}
_SOURCES = [
    ["--fixture", "table2-examples"],
    ["--input", "votes.jsonl", "--roster", "roster.json"],
    ["--input", "votes.jsonl", "--roster", "roster.json"],
    ["--config", "run.json"],
    [],
]
_junk = st.text(max_size=6).filter(lambda t: not t.startswith("--f"))


@st.composite
def _argv(draw):
    """Real flags with valid values, except that one example in four also
    draws junk values, junk tokens and an unknown command."""
    junk = draw(st.integers(0, 3)) == 0

    def value(flag):
        valid = st.sampled_from(_VALUES[flag])
        return draw(valid | _junk if junk else valid)

    commands = ["sanitize", "tabulate", "compare", "audit"] + (["bogus"] if junk else [])
    command = draw(st.sampled_from(commands))
    argv = [command, *draw(st.sampled_from(_SOURCES))]
    if command == "tabulate" and not junk:
        argv += ["--method", value("--method")]
    for flag in draw(st.lists(st.sampled_from(_FLAGS.get(command, _SOURCE)), max_size=4)):
        argv += [flag] if _VALUES[flag] is None else [flag, value(flag)]
    if junk:
        argv += draw(st.lists(_junk, max_size=1))
    return argv


@st.composite
def _config(draw):
    """An object of option keys (some spelled with dashes, some unknown) with
    valid values, or any JSON values; sometimes bytes that are not JSON."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(max_size=12))
    config = {}
    flags = st.sampled_from([*_VALUES, "--func", "--command", "--zzz"])
    for flag in draw(st.lists(flags, max_size=5)):
        key = draw(st.sampled_from([flag[2:].replace("-", "_"), flag[2:]]))
        valid = st.sampled_from(_VALUES.get(flag) or [True, False])
        any_value = st.none() | st.integers(-2, 12) | _junk | st.lists(st.integers(), max_size=2)
        config[key] = draw(st.one_of(valid, valid, valid, any_value))
    return config


_ranks = st.lists(st.lists(st.sampled_from(["A", "B", "C", "W"]), max_size=2), max_size=4)


def _line(n, ranks) -> bytes:
    return json.dumps({"ballot_id": f"b{n}", "ranks": ranks}).encode()


# clean CVRs number their ballots, so they reach the count; dirty ones draw
# ids from ten values, so most of them repeat an id
_clean_cvr = st.lists(_ranks, max_size=20).map(
    lambda ballots: [_line(n, ranks) for n, ranks in enumerate(ballots)]
)
_junk_line = st.builds(_line, st.integers(0, 9), _ranks) | st.binary(max_size=12)
_dirty_cvr = st.lists(_junk_line, max_size=20)
_cvr = st.one_of(_clean_cvr, _clean_cvr, _dirty_cvr).map(lambda lines: b"\n".join(lines))
_ROBUST_ROSTER = json.dumps(
    {
        "candidates": [{"id": c, "name": c} for c in "ABC"]
        + [{"id": "W", "name": "Wr", "writein": True}]
    }
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv(), config=_config(), cvr=_cvr)
def test_any_input_exits_cleanly(tmp_path_factory, argv, config, cvr):
    """Any argv, --config object and CVR bytes end in exit 0, 2, 3 or 4 with
    no traceback; 1 comes only with --fail-on-findings."""
    work = tmp_path_factory.mktemp("robust")
    (work / "roster.json").write_text(_ROBUST_ROSTER)
    (work / "votes.jsonl").write_bytes(cvr)
    raw_config = config if isinstance(config, bytes) else json.dumps(config).encode()
    (work / "run.json").write_bytes(raw_config)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    fail_on_findings = "--fail-on-findings" in argv or (
        isinstance(config, dict)
        and any(config.get(key) is True for key in ("fail_on_findings", "fail-on-findings"))
    )
    assert code in ({0, 1, 2, 3, 4} if fail_on_findings else {0, 2, 3, 4})
    assert "Traceback" not in err.getvalue()
