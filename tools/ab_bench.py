"""A/B runs of the benchmark: two revisions, alternated, on one machine.

Usage, from the root of a checkout:

    python3 tools/ab_bench.py PARENT CHANGE --workload W [--pairs N]

PARENT and CHANGE are git revisions (a commit, a branch, or the id that
``git stash create`` prints for uncommitted work). Each is copied with
``git archive`` into a sibling directory of a temporary directory, named so
that both paths have the same length, and ``perfbench/run.py --workload W
--seconds S`` runs in each copy, untraced, where S is the ``run_seconds`` of
``BENCHMARK.json``, the length the benchmark itself runs. A pair is one run
on each side; the parent runs first on even pairs and the change first on
odd ones, so that a drift of the machine's speed falls on both. There are
at least 10 pairs (the default), the fewest that can back a claim of a
gain. ``--workload all`` runs every workload of ``BENCHMARK.json`` in each
pair.

For each end-to-end metric of ``BENCHMARK.json`` it prints the medians of
both sides over the pairs, the parent's quartiles, the gap between the
medians against the parent's interquartile range, and in how many pairs the
change read lower; and per workload the range of timed passes per run on
each side. ``run.py`` compiles each copy's bytecode before it times. The
exit code is 0 when every run is correct with no failed operation and
prints its number of timed passes, 1 when one does not, and 2 when a
revision cannot be copied.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # directory names of equal length


def export(revision: str, target: Path) -> None:
    """The files of ``revision`` under ``target``, as ``git archive`` gives them."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, capture_output=True, check=True
    )
    target.mkdir()
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive.stdout, check=True)


def run_once(copy: Path, command: list[str], workload: str, seconds: float) -> dict:
    """The result line of one untraced run of ``workload`` in ``copy``, with
    the number of timed passes it printed as ``passes``; a run that prints
    no pass count gets an ``error``, so it cannot pass as a run of 0 passes."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        error = done.stderr[-500:]
        return {"correct": False, "failed": None, "metrics": {}, "passes": 0, "error": error}
    passes = re.search(r"^cpu_s = .* median of (\d+) untraced passes", done.stdout, re.M)
    line["passes"] = int(passes.group(1)) if passes else 0
    if not passes:
        line["error"] = "run.py printed no 'cpu_s = ... median of N untraced passes' line"
    return line


def summary(values: dict[str, list[float]], better: str) -> str:
    """One line for a metric: both medians, the parent's quartiles and IQR,
    and how many pairs read lower on the change."""
    parent, change = values["parent"], values["change"]
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gap = c_med - p_med
    lower = sum(c < p for p, c in zip(parent, change))
    return (
        f"parent median {p_med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, IQR {q3 - q1:.4f}), "
        f"change median {c_med:.4f} ({gap / p_med:+.1%}, gap {abs(gap):.4f}), "
        f"change lower in {lower} of {len(parent)} pairs ({better} is better)"
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT", help="the revision to compare against")
    parser.add_argument("change", metavar="CHANGE", help="the revision measured")
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    seconds = spec["run_seconds"]
    workloads = names if args.workload == "all" else [args.workload]
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        copies = {side: Path(tmp) / side for side in SIDES}
        for side, revision in zip(SIDES, (args.parent, args.change)):
            try:
                export(revision, copies[side])
            except subprocess.CalledProcessError as exc:
                detail = exc.stderr.decode(errors="replace").strip() if exc.stderr else exc
                print(f"error: cannot copy {side} revision {revision!r}: {detail}", file=sys.stderr)
                return 2
        # workload -> metric -> side -> one value per pair
        values = {w: {m: {s: [] for s in SIDES} for m in metrics} for w in workloads}
        passes = {w: {s: [] for s in SIDES} for w in workloads}
        bad = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    line = run_once(copies[side], spec["command"], workload, seconds)
                    if not line["correct"] or line["failed"] or "error" in line:
                        bad.append(f"pair {pair} {workload} {side}: {line}")
                    for metric in metrics:
                        value = line["metrics"].get(metric, {}).get("value", float("nan"))
                        values[workload][metric][side].append(value)
                    passes[workload][side].append(line["passes"])
                    cells = ", ".join(
                        f"{m} {values[workload][m][side][-1]:.4f}" for m in metrics
                    )
                    print(
                        f"pair {pair} {workload} {side}: {cells}, {passes[workload][side][-1]} passes",
                        flush=True,
                    )

    print(f"== {args.pairs} pairs, {seconds:g} s runs, parent {args.parent}, change {args.change}")
    for workload in workloads:
        counts = ", ".join(f"{min(passes[workload][s])}-{max(passes[workload][s])} {s}" for s in SIDES)
        print(f"{workload} timed passes per run: {counts}")
        for metric, better in metrics.items():
            print(f"{workload} {metric}: {summary(values[workload][metric], better)}")
    for line in bad:
        print(f"FAILED RUN: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
