"""Benchmark of the rcv-forensics command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One run makes the workload's inputs from the seed, times the set-up every CLI
call pays in fresh interpreters, then runs the workload's command sequence
through ``rcv_forensics.cli.main`` in a child process for ``--seconds``
seconds, one pass after another (a closed loop with one client). It checks
every output against pinned digests and the independent results in
``reference.py``, replays every audit witness through ``verify_witness``, and
prints each metric by name and unit. End-to-end times are CPU times scaled
to a reference speed of the core (see ``probe.py``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the
end-to-end metrics untraced (``--trace 0``) or the per-layer metrics of a
traced run (``--trace 1``). ``--workload all`` runs every workload both ways.
Inputs, reports, spans and a full result file per run go under
``.perfbench/`` at the root. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
from inputs import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
SETUP_PROBES = 5  # before and again after the timed passes
THREADS_KNOB = "RCV_FORENSICS_THREADS"

# Times are CPU time (user plus system) of the process doing the work, scaled
# to a reference speed of the core by the probe of ``probe.py``. On a shared
# host with few cores, wall time also counts the stretches the hypervisor
# gives the cores to other tenants (steal time), and raw CPU time moves by up
# to 2x with what other tenants run on the same physical core; both move
# whole runs. Raw CPU and wall times are printed and saved beside them.
END_TO_END = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Per-layer metrics reported in the result line. Layer times that are zero by
# construction on some workload (ingest on Table 1, scans on bulk ingest) are
# printed with the rest but kept out of the line, so that every time in it is
# measured on every workload.
PER_LAYER = {
    "cli.self.s": "s",
    "reports.dumps.s": "s",
    "methods.rcv_tabulate.s": "s",
    "methods.compare.s": "s",
    "profiles.pairwise.s": "s",
    "trace.overhead_frac": "ratio",
    "cvr.lines": "count",
    "sanitize.ballots": "count",
    "sanitize.distinct_raw": "count",
    "sanitize.repeat_share": "ratio",
    "sanitize.profile_types": "count",
    "profiles.remove_candidates.calls": "count",
    "methods.rounds": "count",
    "methods.retab.calls": "count",
    "forensics.downward.retabs": "count",
    "forensics.upward.retabs": "count",
    "forensics.noshow.retabs": "count",
    "forensics.compromise.retabs": "count",
    "forensics.outcome_changes": "count",
    "forensics.useful_ratio": "ratio",
    "forensics.witnesses": "count",
    "forensics.boundaries": "count",
    "reports.bytes": "count",
}
TSCANS = tuple(f"forensics.{s}.s" for s in ("downward", "upward", "noshow", "compromise"))
INGEST = ("cvr.parse.s", "sanitize.sanitize_all.s", "sanitize.sanitize_ballots.s", "sanitize.emit.s")
# The layers each workload was chosen to load; the traced run checks that
# their spans cover more than half of a pass.
DOMINANT = {
    "table1-audit": TSCANS,
    "synthetic-cvr-buggy-audit": TSCANS,
    "generated-multiround-audit": TSCANS,
    "bulk-cvr-ingest": INGEST,
}
# Re-tabulations per t-scan on Table 1, measured at the seed commit.
TABLE1_RETABS = {"downward": 20376, "upward": 10956, "noshow": 26432, "compromise": 30181}
SEED_INDEPENDENT = ("table1-audit", "synthetic-cvr-buggy-audit")


class Checks:
    """Counts operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_KNOB}
    env["PYTHONHASHSEED"] = "0"
    return env


def read_cvr(path: Path) -> list[tuple[str, tuple[tuple[str, ...], ...]]]:
    with open(path, encoding="utf-8") as stream:
        docs = [json.loads(line) for line in stream if line.strip()]
    return [(d["ballot_id"], tuple(tuple(slot) for slot in d["ranks"])) for d in docs]


def read_roster(path: Path) -> tuple[list[str], list[str]]:
    with open(path, encoding="utf-8") as stream:
        doc = json.load(stream)
    officials = [c["id"] for c in doc["candidates"] if not c.get("writein")]
    return officials, [c["id"] for c in doc["candidates"] if c.get("writein")]


def prepare(name: str, seed: int, work: Path) -> dict:
    """Write the workload's input files and describe the inputs."""
    cvr, roster = work / "cvr.jsonl", work / "roster.json"
    if name == "table1-audit":
        from rcv_forensics.fixtures import TABLE1_COUNTS

        cands, writeins = ["H", "M", "R"], []
        entries = list(TABLE1_COUNTS.items())
        raw = None
        types = len(entries)
    else:
        make = {
            "synthetic-cvr-buggy-audit": inputs.synthetic_fixture,
            "generated-multiround-audit": inputs.multiround_cvr,
            "bulk-cvr-ingest": inputs.bulk_cvr,
        }[name]
        make(seed, str(cvr), str(roster))
        officials, writeins = read_roster(roster)
        cands = officials + writeins
        raw = read_cvr(cvr)
        entries = reference.clean_entries([s for _, s in raw], writeins)
        types = len({reference.sanitize(s, writeins) for _, s in raw})
    winner, rounds = reference.irv(entries, cands, writeins)
    return {
        "cvr": cvr,
        "roster": roster,
        "candidates": cands,
        "writeins": writeins,
        "entries": entries,
        "raw": raw,
        "winner": winner,
        "rounds": rounds,
        "properties": {
            "candidates": len([c for c in cands if c not in writeins]),
            "writeins": len(writeins),
            "ballots": sum(n for _, n in entries),
            "distinct_raw_patterns": len({s for _, s in raw}) if raw else None,
            "distinct_types": types,
            "rounds": len(rounds),
        },
    }


def command_lines(name: str, work: Path, data: dict) -> tuple[list[list[str]], list[list[str]]]:
    """argv of each command of a pass, and the files its output goes to:
    standard output, then the ``--output`` file."""
    argvs, artifacts = [], []
    for i, template in enumerate(WORKLOADS[name].commands):
        argv = [
            a.format(cvr=data["cvr"], roster=data["roster"], work=work) for a in template
        ] + ["--format", "json"]
        if "--output" not in argv:
            argv += ["--output", str(work / f"report{i}.json")]
        argvs.append(argv)
        artifacts.append([str(work / f"stdout{i}.txt"), argv[argv.index("--output") + 1]])
    return argvs, artifacts


def measure_setup(probes: int) -> list[dict]:
    """CPU time, raw and scaled, of fresh interpreters that import the
    package and build the CLI parser."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC)]
    return [
        json.loads(
            subprocess.run(cmd, env=child_env(), check=True, timeout=60, capture_output=True, text=True).stdout
        )
        for _ in range(probes)
    ]


def run_worker(spec: dict, work: Path, timeout: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "worker-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        env=child_env(),
        check=True,
        timeout=timeout,
        cwd=HERE,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def cli_json(argv: list[str], out: Path) -> tuple[int, dict | None]:
    """One untimed CLI call whose JSON report goes to ``out``."""
    from rcv_forensics import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--format", "json", "--output", str(out)])
    if code != 0:
        return code, None
    return code, json.loads(out.read_text(encoding="utf-8"))


def rounds_of(report: dict) -> list[dict]:
    """Counting rounds of a tabulation report; round 0 is write-in removal."""
    return [r["tallies"] for r in report["rounds"] if r["number"] >= 1]


def witnesses_of(report: dict) -> list:
    from rcv_forensics import (
        CompromiseWitness,
        Direction,
        MonotonicityWitness,
        NoShowWitness,
        SpoilerWitness,
    )

    checks = report["checks"]
    found = [
        SpoilerWitness(tuple(w["removed"]), w["original_winner"], w["new_winner"])
        for w in checks["spoiler"]["witnesses"]
    ]
    for body in checks["monotonicity"].values():
        found += [
            MonotonicityWitness(
                Direction(w["direction"]), w["focal_candidate"], tuple(w["ballot_type"]),
                w["raw_first_invalid"], tuple(w["modified_type"]), w["min_count"],
                w["max_count"], w["original_winner"], w["new_winner"],
            )
            for w in body["witnesses"]
        ]
    found += [
        NoShowWitness(
            tuple(w["ballot_type"]), w["raw_first_invalid"], w["count"],
            w["original_winner"], w["new_winner"],
        )
        for w in checks["noshow"]["witnesses"]
    ]
    found += [
        CompromiseWitness(
            tuple(w["ballot_type"]), w["raw_first_invalid"], w["promoted_candidate"],
            w["count"], w["max_count"], w["original_winner"], w["new_winner"],
        )
        for w in checks["compromise"]["witnesses"]
    ]
    return found


def replay_witnesses(name: str, data: dict, report: dict, winner: str | None, checks: Checks) -> int:
    """Replay every witness of an audit report on a freshly loaded profile."""
    from rcv_forensics import (
        ALAMEDA,
        RcvOptions,
        TiePolicy,
        WriteinPolicy,
        load_builtin_fixture,
        load_roster,
        parse_cvr,
        sanitize_all,
        verify_witness,
    )

    if name == "table1-audit":
        profile = load_builtin_fixture("oakland-table1")
    else:
        with open(data["roster"], encoding="utf-8") as stream:
            roster = load_roster(stream)
        with open(data["cvr"], encoding="utf-8") as stream:
            profile, _ = sanitize_all(parse_cvr(stream, roster), ALAMEDA, roster)
    opts = report["options"]
    options = RcvOptions(
        WriteinPolicy(opts["writein_policy"]), TiePolicy(opts["tie_policy"]), opts["buggy_first_round"]
    )
    witnesses = witnesses_of(report)
    for w in witnesses:
        checks.op(
            w.original_winner == winner and verify_witness(profile, w, options),
            f"witness does not replay: {w}",
        )
    return len(witnesses)


def check_outputs(name: str, seed: int, work: Path, data: dict, argvs, artifacts, checks: Checks) -> tuple[list, set]:
    """Check the last pass's outputs against reference results.

    Returns the digests every pass must reproduce (pinned where the seed
    commit's bytes are known, else None) and the command indices whose
    outputs disagree with the reference.
    """
    pinned = reference.PINNED[name] if name in SEED_INDEPENDENT or seed == reference.DEFAULT_SEED else None
    try:
        return pinned, compare_with_reference(name, work, data, argvs, artifacts, checks)
    except (OSError, ValueError, LookupError, TypeError) as exc:
        checks.op(False, f"outputs missing or malformed: {exc!r}")
        return pinned, set(range(len(argvs)))


def compare_with_reference(name: str, work: Path, data: dict, argvs, artifacts, checks: Checks) -> set[int]:
    """Indices of the commands whose outputs disagree with ``reference``."""
    bad: set[int] = set()
    # a command writes its JSON document to --output, except that sanitize
    # writes the clean CVR there and its statistics to standard output
    docs = [
        Path(files[1] if files[1].endswith(".json") else files[0]).read_text(encoding="utf-8")
        for files in artifacts
    ]
    reports = [json.loads(doc) for doc in docs]
    winner = data["winner"]

    if name == "bulk-cvr-ingest":
        writeins = set(data["writeins"])
        expected = reference.clean_cvr_bytes(data["raw"], writeins)
        stats = reference.sanitize_stats([s for _, s in data["raw"]], writeins)
        if Path(artifacts[0][1]).read_bytes() != expected or reports[0]["stats"] != stats:
            bad.add(0)
        tab, cmp = reports[1], reports[2]
        if tab["winner"] != winner or rounds_of(tab) != data["rounds"]:
            bad.add(1)
        rows = {r["method"]: r["winner"] for r in cmp["rows"]}
        plural = reference.plurality_winner(data["entries"], data["candidates"])
        if rows["rcv"] != winner or rows["plurality"] != plural:
            bad.add(2)
        return bad

    # audits: the tabulation they rest on, checked through an untimed probe
    probe = ["tabulate", "--method", "rcv"] + argvs[0][1:argvs[0].index("--checks")]
    code, tab = cli_json(probe, work / "probe.json")
    ok = code == 0
    if ok and name == "synthetic-cvr-buggy-audit":
        # the misconfigured count's published final round
        ok = tab["winner"] == "R" and rounds_of(tab)[-1] == {"M": 11753, "R": 12352}
        winner = "R"
    elif ok:
        ok = tab["winner"] == winner and rounds_of(tab) == data["rounds"]
    checks.op(ok, f"probe {' '.join(probe)} disagrees with the reference tabulation")

    report = reports[0]
    if name == "table1-audit":
        found = [(d["published"], d["computed"], d["status"]) for d in report["discrepancies"]]
        if found != [(598, 299, "unresolved discrepancy")]:
            bad.add(0)
    if name == "generated-multiround-audit":
        expected = reference.pairwise(data["entries"], data["candidates"])
        if report["checks"]["condorcet"]["pairwise"] != expected:
            bad.add(0)
    data["witnesses"] = replay_witnesses(name, data, report, winner, checks)
    return bad


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    data = prepare(name, seed, work)
    argvs, artifacts = command_lines(name, work, data)
    measure_setup(1)  # compiles the bytecode, which users pay once
    setup = measure_setup(SETUP_PROBES)
    spec = {
        "src": str(SRC),
        "commands": argvs,
        "artifacts": artifacts,
        "seconds": seconds,
        "trace": trace,
        "spans": str(work / "spans.jsonl"),
    }
    result = run_worker(spec, work, CHILD_TIMEOUT_S - (time.perf_counter() - began))
    passes = result["passes"]
    # probes on both sides of the timed passes sample two stretches of the
    # machine's load rather than one
    setup += measure_setup(SETUP_PROBES)

    checks = Checks()
    pinned, bad = check_outputs(name, seed, work, data, argvs, artifacts, checks)
    expected = pinned or passes[0]["digests"]
    for n, p in enumerate(passes):
        for i, argv in enumerate(argvs):
            checks.op(
                p["codes"][i] == 0 and p["digests"][i] == expected[i] and i not in bad,
                f"pass {n} {argv[0]}: exit {p['codes'][i]}, digests {p['digests'][i]}",
            )

    # the worker runs at least two untraced passes, enough for quartiles
    untraced = [p for p in passes if not p["traced"]]
    out = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "why": WORKLOADS[name].why,
        "inputs": data["properties"],
        "witnesses_replayed": data.get("witnesses", 0),
        "cpu_s": spread([p["scaled"] for p in untraced]),
        "cpu_raw_s": spread([p["cpu"] for p in untraced]),
        "wall_s": spread([p["wall"] for p in untraced]),
        "setup_s": {
            "median": statistics.median(s["scaled"] for s in setup),
            "raw_median": statistics.median(s["cpu"] for s in setup),
            "samples": len(setup),
        },
        "peak_rss_mb": result["peak_rss_mb"],
        "passes": passes,
        "environment": environment(),
    }
    if trace:
        out["layers"], out["reason"] = layer_summary(name, passes, checks)
    out["attempted"] = checks.attempted
    out["failed"] = len(checks.failures)
    out["failures"] = checks.failures[:20]
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"fastest": min(values), "median": median, "q1": q1, "q3": q3, "samples": len(values)}


def layer_summary(name: str, passes: list[dict], checks: Checks) -> tuple[dict, str]:
    """Median of each per-layer metric over the traced passes, the tracing
    overhead, and whether the layers the workload was chosen for dominate."""
    traced = [p for p in passes if p["traced"]]
    keys = traced[0]["layers"]
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
    traced_wall = statistics.median(p["wall"] for p in traced)
    cpu = {t: statistics.median(p["cpu"] for p in passes if p["traced"] is t) for t in (False, True)}
    layers["trace.overhead_frac"] = cpu[True] / cpu[False] - 1
    counters = [k for k, unit in PER_LAYER.items() if unit == "count"]
    for p in traced[1:]:
        checks.op(
            all(p["layers"][k] == traced[0]["layers"][k] for k in counters),
            "work counters differ between traced passes",
        )
    if name == "table1-audit":
        for scan, n in TABLE1_RETABS.items():
            checks.op(layers[f"forensics.{scan}.retabs"] == n, f"table1 {scan} retabs != {n}")
    share = sum(layers[k] for k in DOMINANT[name]) / traced_wall
    stated = " + ".join(k[: -len(".s")] for k in DOMINANT[name])
    if share > 0.5:
        reason = f"confirmed: {stated} take {share:.0%} of a traced pass"
    else:
        selfs = {k: v for k, v in layers.items() if k.startswith("self.")}
        top = max(selfs, key=selfs.get)
        reason = (
            f"corrected: {stated} take only {share:.0%} of a traced pass; the "
            f"largest self time is layer {top[5:-2]} at {selfs[top] / traced_wall:.0%}"
        )
    return layers, reason


def environment() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_lines": src_lines,
        "children": f"{THREADS_KNOB} removed from the environment "
        f"(parent value: {os.environ.get(THREADS_KNOB, 'unset')}), PYTHONHASHSEED=0",
    }


def print_result(res: dict) -> None:
    name = res["workload"]
    env = res["environment"]
    print(f"== {name} (seed {res['seed']}, trace {res['trace']})")
    print(f"why: {res['why']}")
    print("inputs: " + ", ".join(f"{k}={v}" for k, v in res["inputs"].items()))
    print(
        f"environment: python {env['python']}, nproc {env['nproc']}, commit "
        f"{env['commit'] or 'unknown'}, src lines {env['src_lines']}; {env['children']}"
    )
    for key, what in (("cpu_s", "scaled CPU"), ("cpu_raw_s", "raw CPU"), ("wall_s", "wall")):
        w = res[key]
        print(
            f"{key} = {w['median']:.4f} s ({what} time, median of {w['samples']} untraced passes, "
            f"quartiles {w['q1']:.4f}-{w['q3']:.4f}, fastest {w['fastest']:.4f}; "
            "too few samples for a high percentile)"
        )
    print(
        f"setup_s = {res['setup_s']['median']:.4f} s (scaled CPU time, median of "
        f"{res['setup_s']['samples']} interpreters; raw {res['setup_s']['raw_median']:.4f} s)"
    )
    if not res["trace"]:
        print(f"peak_rss_mb = {res['peak_rss_mb']:.1f} MiB")
    frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {frac:.4f} ({res['failed']} failed of {res['attempted']} attempted)")
    print(f"witnesses replayed: {res['witnesses_replayed']}")
    if res["trace"]:
        for key, value in sorted(res["layers"].items()):
            unit = PER_LAYER.get(key) or ("s" if key.endswith(".s") else "us" if key.endswith(".us") else "count")
            print(f"{key} = {value:.6g} {unit}")
        print(f"reason {res['reason']}")
    for failure in res["failures"]:
        print(f"FAILED: {failure}")


def result_line(res: dict) -> dict:
    if res["trace"]:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "cpu_s": res["cpu_s"]["median"],
            "setup_s": res["setup_s"]["median"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rcv_forensics" / "cli.py").is_file():
        print(f"error: no rcv_forensics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    lines = {}
    for name, trace in runs:
        try:
            res = run_workload(name, args.seed, args.seconds, trace)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(res)
        path = WORK / f"{name}-seed{args.seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(res, indent=1), encoding="utf-8")
        lines[(name, trace)] = result_line(res)
    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {
                f"{name}.{key}": value
                for (name, _), x in lines.items()
                for key, value in x["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
