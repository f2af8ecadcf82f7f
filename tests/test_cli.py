import hashlib
import json

import pytest

from rcv_forensics.cli import main

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_profile_fixture_rejected(self, capsys):
        code, _, err = run(capsys, "sanitize", "--fixture", "oakland-table1")
        assert code == 2
        assert "aggregated profile" in err


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

    def test_text_mentions_unresolved_discrepancy(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--fixture", "oakland-table1", "--checks", "monotonicity"
        )
        assert "published 598 vs computed 299" in out
        assert "unresolved discrepancy" in out


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    completed = subprocess.run(
        [sys.executable, "-m", "rcv_forensics.cli", "tabulate",
         "--fixture", "oakland-table1", "--method", "rcv", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert json.loads(completed.stdout)["winner"] == "H"


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
