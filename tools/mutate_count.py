"""Mutation gate for the counting core, the preference profile and its
edits, the pathology searches, ballot sanitization and CVR ingest.

Usage, from the root of a checkout:

    python3 tools/mutate_count.py           # run every mutant, print survivors
    python3 tools/mutate_count.py --list    # print the mutants without running
    python3 tools/mutate_count.py --module src/rcv_forensics/cvr.py   # one GATE row

GATE names, per module, the definitions to mutate and the tests that must
kill their mutants. Each mutant changes one spot in one of those
definitions: a comparison flipped (``<`` to ``<=`` or ``>``, ``==`` to
``!=``, ``in`` to ``not in``, ``is`` to ``is not``), a ``+=`` turned into
``-=`` or back, an ``and`` turned into ``or`` or back, or an integer constant
moved by one. The mutant is written into a copy of ``src/``, ``tests/`` and
``perfbench/`` (whose input generators some tests read) in a temporary
directory, and the module's tests run against it; a mutant survives when
they all pass. Survivors listed in EQUIVALENT with a reason are expected.
The exit code is 0 when every other mutant is killed, 1 when one survives,
and 2 when the gate cannot run: a GATE name that names no top-level
definition, an EQUIVALENT key of the rows run that no mutant has (``--list``
prints the current ids), or tests that fail unmutated.

Not part of the tier-1 suite: a full run starts one pytest per mutant.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
# module -> (definitions mutated, tests run against each of their mutants)
GATE = {
    Path("src/rcv_forensics/methods.py"): (
        (
            "_Piles", "_piled", "_decide", "_irv", "rcv_tabulate", "winner_without",
            "plurality_runoff", "borda", "_find_majority_cycle", "condorcet_analysis",
        ),
        ("tests/test_methods.py", "tests/test_pile_count.py", "tests/test_forensics.py"),
    ),
    Path("src/rcv_forensics/scan.py"): (
        ("PrefixTrie", "EditCount", "_steady", "_round", "_first", "_evaluate", "rcv_winner"),
        ("tests/test_methods.py", "tests/test_pile_count.py", "tests/test_forensics.py"),
    ),
    Path("src/rcv_forensics/profiles.py"): (
        ("PreferenceProfile",),
        ("tests/test_profiles.py", "tests/test_methods.py"),
    ),
    Path("src/rcv_forensics/forensics.py"): (
        (
            "_scan", "search_monotonicity", "search_noshow", "search_compromise",
            "find_spoilers", "verify_witness", "brute_force_oracle",
        ),
        ("tests/test_forensics.py",),
    ),
    Path("src/rcv_forensics/sanitize.py"): (
        (
            "_clean", "sanitize_ballot", "sanitize_ballots", "sanitize_stats", "sanitize_all",
            "emit_clean_cvr",
        ),
        ("tests/test_sanitize.py", "tests/test_cvr.py"),
    ),
    Path("src/rcv_forensics/cvr.py"): (
        (
            "_parsed_ballot", "RawBallots", "_slots", "_decode_line", "_parse_line", "_states_id",
            "parse_cvr", "cvr_tail", "cvr_line", "_decode_roster",
        ),
        ("tests/test_cvr.py",),
    ),
}
TIMEOUT_S = 120

# mutant id -> why no test can tell it from the original
EQUIVALENT = {
    "plurality_runoff: cut = tallies[ranked[1]] [col 29: 1->2]": (
        "the line runs only when tallies[ranked[1]] == tallies[ranked[2]]"
    ),
    "verify_witness: and 1 <= w.min_count <= w.max_count [col 16: 1->0]": (
        "a count of 0 replays the unedited profile, whose winner is the original, "
        "so verify_witness returns False whatever the order"
    ),
    "verify_witness: and 1 <= w.count <= w.max_count [col 16: 1->0]": (
        "a count of 0 replays the unedited profile, whose winner is the original, "
        "so verify_witness returns False whatever the order"
    ),
    "verify_witness: sound = prefers(w.ballot_type, w.new_winner, w.original_winner) "
    "and w.count >= 1 [col 87: 1->0]": (
        "a count of 0 replays the unedited profile, whose winner is the original, "
        "so verify_witness returns False"
    ),
    "EditCount: self.segment = (1, 0, None) [col 24: 1->2]": (
        "the initial segment only has to be empty, and (2, 0) is as empty as (1, 0)"
    ),
    "EditCount: self.segment = (1, 0, None) [col 27: 0->-1]": (
        "the initial segment only has to be empty, and (1, -1) is as empty as (1, 0)"
    ),
    "_evaluate: if rise < room: [col 11: op0 Lt->LtE]": (
        "on equality the store writes the value room already holds"
    ),
    "condorcet_analysis: if margin > worst[y]: [col 15: op0 Gt->GtE]": (
        "on equality the store writes the value worst[y] already holds"
    ),
    "condorcet_analysis: if -margin > worst[x]: [col 15: op0 Gt->GtE]": (
        "on equality the store writes the value worst[x] already holds"
    ),
    "find_spoilers: for size in range(1, min(max_subset_size, len(losers)) + 1): "
    "[col 22: 1->0]": (
        "size 0 adds only the empty subset, which counts the unedited profile: its "
        "winner is the original one, found without a tie, so it is neither a witness "
        "nor a tie subset"
    ),
    "brute_force_oracle: for size in range(1, len(losers) + 1): [col 22: 1->0]": (
        "size 0 adds only the empty subset, which counts the unedited profile: its "
        "winner is the original one, found without a tie"
    ),
    "brute_force_oracle: for size in range(1, len(losers) + 1): [col 39: 1->2]": (
        "there is no subset of more than len(losers) losers"
    ),
    "brute_force_oracle: for size in range(1, len(losers) + 1): [col 39: 1->0]": (
        "removing every loser leaves the original winner alone, and the last "
        "candidate standing wins without a tie"
    ),
    "brute_force_oracle: for promoted in ranking[1:] [col 32: 1->0]": (
        "promoting the first candidate leaves the type as it is, so every t counts "
        "the unedited profile, whose winner never qualifies and never ties"
    ),
    "brute_force_oracle: for t in range(1, profile.entries[(ranking, flag)] + 1) "
    "[col 31: 1->0]": (
        "t = 0 counts the unedited profile, whose original winner never qualifies "
        "and is no tie, so the run it starts or joins gives no witness or boundary"
    ),
    "_clean: candidate = slot[0] [col 25: 0->-1]": (
        "the line runs only on a slot of one candidate, where slot[0] is slot[-1]"
    ),
    "sanitize_stats: if max(map(len, slots), default=0) > 1: [col 40: 0->1]": (
        "the default is read only for a pattern of no slots, and 1, like 0, is not above 1"
    ),
    "sanitize_stats: if max(map(len, slots), default=0) > 1: [col 40: 0->-1]": (
        "the default is read only for a pattern of no slots, and -1, like 0, is not above 1"
    ),
}

_FLIPS = {
    ast.Lt: (ast.LtE, ast.Gt),
    ast.LtE: (ast.Lt, ast.GtE),
    ast.Gt: (ast.GtE, ast.Lt),
    ast.GtE: (ast.Gt, ast.LtE),
    ast.Eq: (ast.NotEq,),
    ast.NotEq: (ast.Eq,),
    ast.In: (ast.NotIn,),
    ast.NotIn: (ast.In,),
    ast.Is: (ast.IsNot,),
    ast.IsNot: (ast.Is,),
}
_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And}


def missing_definitions(module: Path, source: str) -> list[str]:
    """The GATE names of ``module`` that name no top-level def or class of its source."""
    tree = ast.parse(source)
    defined = {top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))}
    return [name for name in GATE[module][0] if name not in defined]


def _target_nodes(tree: ast.Module, targets: tuple[str, ...]) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of every node inside the target definitions,
    in a fixed walk order, so that the same index finds the same node in a
    fresh parse."""
    found = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in targets:
            for node in ast.walk(top):
                found.append((top.name, node))
    return found


def _mutations(node: ast.AST) -> list[tuple[str, object]]:
    """(label, change) pairs for one node; change is what _apply needs."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for new in _FLIPS.get(type(op), ()):
                out.append((f"op{i} {type(op).__name__}->{new.__name__}", (i, new)))
    elif isinstance(node, (ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        new = _SWAPS[type(node.op)]
        out.append((f"{type(node.op).__name__}->{new.__name__}", new))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for delta in (1, -1):
            out.append((f"{node.value}->{node.value + delta}", node.value + delta))
    return out


def _apply(node: ast.AST, change: object) -> None:
    if isinstance(node, ast.Compare):
        i, new = change
        node.ops[i] = new()
    elif isinstance(node, (ast.AugAssign, ast.BoolOp)):
        node.op = change()
    else:
        node.value = change


def _mutated(source: str, targets: tuple[str, ...], index: int, change: object) -> str:
    """source with one change made to the index-th target node of a fresh parse."""
    tree = ast.parse(source)
    _apply(_target_nodes(tree, targets)[index][1], change)
    return ast.unparse(tree)


def mutants(source: str, targets: tuple[str, ...]) -> list[tuple[str, str, Callable[[], str]]]:
    """(id, description, build) of every mutant, where build() returns the
    mutated source: only a mutant that runs is built. The id names the
    definition, the text of the source line, the column and the change, so
    that it survives edits elsewhere in the file."""
    lines = source.splitlines()
    result = []
    seen: dict[str, int] = {}
    for index, (name, node) in enumerate(_target_nodes(ast.parse(source), targets)):
        for label, change in _mutations(node):
            key = f"{name}: {lines[node.lineno - 1].strip()} [col {node.col_offset}: {label}]"
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > 1:  # the same line text appears again in the definition
                key += f" #{seen[key]}"
            build = functools.partial(_mutated, source, targets, index, change)
            result.append((key, f"line {node.lineno}: {key}", build))
    return result


def _run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[bool, str]:
    """Whether the tests pass in the copy, and the last line pytest printed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *tests,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines() or [""]
    return done.returncode == 0, lines[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    parser.add_argument(
        "--module", type=Path, metavar="PATH",
        help="run only this GATE row, a path from the root such as src/rcv_forensics/cvr.py",
    )
    args = parser.parse_args(argv)
    gate = GATE
    if args.module is not None:
        if args.module not in GATE:
            parser.error(f"--module must be one of: {', '.join(map(str, GATE))}")
        gate = {args.module: GATE[args.module]}

    sources = {module: (ROOT / module).read_text(encoding="utf-8") for module in gate}
    missing = [(m, name) for m in gate for name in missing_definitions(m, sources[m])]
    for module, name in missing:
        print(f"GATE names {name}, which is no top-level def or class of {module}")
    if missing:
        return 2
    every = [  # (module, tests, id, description, build)
        (module, tests, *m)
        for module, (targets, tests) in gate.items()
        for m in mutants(sources[module], targets)
    ]
    ids = {key for _, _, key, _, _ in every}
    names = {name for targets, _ in gate.values() for name in targets}
    stale = [key for key in EQUIVALENT if key.split(":", 1)[0] in names and key not in ids]
    if args.list:
        for module, _, _, description, _ in every:
            print(f"{module.name} {description}")
        print(f"{len(every)} mutants")
    for key in stale:
        print(f"EQUIVALENT key matches no mutant: {key}")
    if args.list or stale:
        return 2 if stale else 0

    with tempfile.TemporaryDirectory(prefix="mutate-count-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench", "pyproject.toml"):
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, copy / part)
        passed, last = _run_tests(copy, tuple(t for _, tests in gate.values() for t in tests))
        if not passed:
            print(f"the unmutated tests fail: {last}")
            return 2
        survivors = []
        for n, (module, tests, key, description, build) in enumerate(every, 1):
            (copy / module).write_text(build(), encoding="utf-8")
            passed, last = _run_tests(copy, tests)
            (copy / module).write_text(sources[module], encoding="utf-8")
            status = "SURVIVED" if passed else "killed"
            print(f"[{n}/{len(every)}] {status}: {module.name} {description} ({last})", flush=True)
            if passed:
                survivors.append(key)

    unexplained = [key for key in survivors if key not in EQUIVALENT]
    print(f"{len(every)} mutants, {len(every) - len(survivors)} killed, "
          f"{len(survivors)} survived, {len(unexplained)} not listed as equivalent")
    for key in survivors:
        reason = EQUIVALENT.get(key)
        print(f"  survivor: {key}" + (f" -- equivalent: {reason}" if reason else ""))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
