"""Spans and work counters recorded from outside the program.

``Tracer.install`` replaces the public functions ``rcv_forensics.cli``
imports, plus ``forensics.rcv_winner`` / ``forensics.rcv_tabulate`` and two
``PreferenceProfile`` methods, with wrappers that record a span per call;
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span is (id, parent id, name, start, end, op id), where the op id numbers
the CLI command of the pass that caused it. Spans stay in memory until the
pass ends. A span's self time is its duration minus that of its children;
calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import time

import rcv_forensics.cli as cli
import rcv_forensics.forensics as forensics
import rcv_forensics.reports as reports
from rcv_forensics.methods import TieError
from rcv_forensics.profiles import PreferenceProfile

SCANS = ("downward", "upward", "noshow", "compromise")

# (owner, attribute, span name); a callable name picks it from the arguments
_TARGETS = [
    (cli, "cmd_sanitize", "cli.sanitize"),
    (cli, "cmd_tabulate", "cli.tabulate"),
    (cli, "cmd_compare", "cli.compare"),
    (cli, "cmd_audit", "cli.audit"),
    (cli, "load_roster", "cvr.load_roster"),
    (cli, "parse_cvr", "cvr.parse"),
    (cli, "load_builtin_fixture", "fixtures.load"),
    (cli, "fixture_roster", "fixtures.load"),
    (cli, "published_claims", "fixtures.load"),
    (cli, "sanitize_all", "sanitize.sanitize_all"),
    (cli, "sanitize_ballots", "sanitize.sanitize_ballots"),
    (cli, "emit_clean_cvr", "sanitize.emit"),
    (cli, "rcv_tabulate", "methods.rcv_tabulate"),
    (forensics, "rcv_tabulate", "methods.rcv_tabulate"),
    (forensics, "rcv_winner", "methods.retab"),
    (cli, "plurality", "methods.compare"),
    (cli, "plurality_runoff", "methods.compare"),
    (cli, "borda", "methods.compare"),
    (cli, "bucklin_topk", "methods.compare"),
    (cli, "condorcet_analysis", "methods.compare"),
    (cli, "minimax_best", "methods.compare"),
    (PreferenceProfile, "pairwise_matrix", "profiles.pairwise"),
    (PreferenceProfile, "remove_candidates", "profiles.remove_candidates"),
    (cli, "find_spoilers", "forensics.spoiler"),
    (cli, "search_monotonicity", lambda args: "forensics." + args[2].value),
    (cli, "search_noshow", "forensics.noshow"),
    (cli, "search_compromise", "forensics.compromise"),
    (reports, "dumps", "reports.dumps"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[tuple[int, str]] = []
        self._last_outcome: dict[int, object] = {}
        self._originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _TARGETS]

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self.op = 0
        self._last_outcome = {}

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self) -> None:
        for (owner, attr, name), (_, _, fn) in zip(_TARGETS, self._originals):
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in self._originals:
            setattr(owner, attr, fn)

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else (None, None)
            tracer.spans.append(None)
            tracer._stack.append((span_id, span_name))
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (span_id, parent[0], span_name, start, end, tracer.op)
                tracer._observe(span_name, parent, args, result, error)

        return traced

    def _observe(self, name: str, parent, args, result, error) -> None:
        """Work counters, taken after the span has closed; ``parent`` is the
        (id, name) of the enclosing span."""
        if name == "methods.retab":
            outcome = ("tie", error.tied) if isinstance(error, TieError) else (result, type(error))
            self._count(f"{parent[1]}.retabs")
            if parent in self._last_outcome and self._last_outcome[parent] != outcome:
                self._count("forensics.outcome_changes")
            self._last_outcome[parent] = outcome
        elif error is not None:
            return
        elif name == "cvr.parse":
            self._count("cvr.lines", len(result))
        elif name == "sanitize.sanitize_all":
            ballots = args[0]
            self.counts["sanitize.ballots"] = len(ballots)
            self.counts["sanitize.distinct_raw"] = len({b.slots for b in ballots})
            self.counts["sanitize.profile_types"] = len(result[0].entries)
        elif name == "methods.rcv_tabulate":
            self._count("methods.rounds", len(result.rounds))
        elif name == "profiles.remove_candidates":
            self._count("profiles.remove_candidates.calls")
        elif name == "reports.dumps":
            self._count("reports.bytes", len(result.encode("utf-8")))
        elif name.startswith("forensics."):
            self._count("forensics.witnesses", len(result.witnesses))
            ties = getattr(result, "boundaries", ()) or getattr(result, "tie_subsets", ())
            self._count("forensics.boundaries", len(ties))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        inclusive: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for span_id, parent, name, start, end, _ in self.spans:
            inclusive[name] = inclusive.get(name, 0.0) + end - start
            if parent is not None:
                child_time[parent] += end - start
        cli_self = sum(
            end - start - child_time[span_id]
            for span_id, _, name, start, end, _ in self.spans
            if name.startswith("cli.")
        )
        counts = self.counts
        out: dict[str, float] = {}
        for name in (
            "cvr.parse", "fixtures.load", "sanitize.sanitize_all",
            "sanitize.sanitize_ballots", "sanitize.emit", "profiles.pairwise",
            "methods.rcv_tabulate", "methods.compare", "forensics.spoiler",
            *(f"forensics.{s}" for s in SCANS), "reports.dumps",
            "cli.sanitize", "cli.tabulate", "cli.compare", "cli.audit",
        ):
            out[f"{name}.s"] = inclusive.get(name, 0.0)
        out["cli.self.s"] = cli_self
        for span_id, _, name, start, end, _ in self.spans:
            key = "self." + name.split(".")[0] + ".s"
            out[key] = out.get(key, 0.0) + end - start - child_time[span_id]
        ballots = counts.get("sanitize.ballots", 0)
        distinct = counts.get("sanitize.distinct_raw", 0)
        retabs = sum(counts.get(f"forensics.{s}.retabs", 0) for s in SCANS)
        out.update(
            {
                "cvr.lines": counts.get("cvr.lines", 0),
                "sanitize.ballots": ballots,
                "sanitize.distinct_raw": distinct,
                "sanitize.repeat_share": 1 - distinct / ballots if ballots else 0.0,
                "sanitize.profile_types": counts.get("sanitize.profile_types", 0),
                "profiles.remove_candidates.calls": counts.get("profiles.remove_candidates.calls", 0),
                "methods.rounds": counts.get("methods.rounds", 0),
                "methods.retab.calls": retabs,
                "methods.retab.us": 1e6 * inclusive.get("methods.retab", 0.0) / retabs if retabs else 0.0,
                **{f"forensics.{s}.retabs": counts.get(f"forensics.{s}.retabs", 0) for s in SCANS},
                "forensics.outcome_changes": counts.get("forensics.outcome_changes", 0),
                "forensics.useful_ratio": counts.get("forensics.outcome_changes", 0) / retabs if retabs else 0.0,
                "forensics.witnesses": counts.get("forensics.witnesses", 0),
                "forensics.boundaries": counts.get("forensics.boundaries", 0),
                "reports.bytes": counts.get("reports.bytes", 0),
            }
        )
        return out
