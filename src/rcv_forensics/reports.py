"""Report documents and their text rendering.

Every command builds one JSON-able dict, mostly with ``to_jsonable`` from the
library's dataclasses, and ``render_text`` renders the text format of every
command from that dict alone, so both formats carry identical numbers by
construction. Serialization is deterministic (sorted keys, fixed separators)
so identical runs produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import enum
import json

from .cvr import CandidateRoster
from .fixtures import PublishedClaim
from .forensics import (
    CompromiseScan,
    CompromiseWitness,
    MonotonicityScan,
    MonotonicityWitness,
    NoShowScan,
    NoShowWitness,
    SpoilerScan,
    SpoilerWitness,
)
from .methods import CondorcetReport
from .profiles import PairwiseMatrix


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def label(roster: CandidateRoster, cid: str) -> str:
    candidate = roster.get(cid)
    return cid if candidate.name == cid else f"{candidate.name} ({cid})"


def _ranking_text(ranking) -> str:
    return " > ".join(ranking) if ranking else "(empty)"


def _pairs_text(values: dict) -> str:
    return "  ".join(f"{key}={value}" for key, value in values.items())


def to_jsonable(value):
    """Dataclasses become dicts keyed by field name, tuples lists and enums
    their values; anything else is returned as it is."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [to_jsonable(item) for item in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def scores_to_dict(method: str, scores: dict[str, int], winner: str | None, **extra) -> dict:
    return {"method": method, "scores": dict(scores), "winner": winner, **extra}


def condorcet_to_dict(matrix: PairwiseMatrix, report: CondorcetReport, best: str | None) -> dict:
    ids = matrix.candidates
    return {
        "method": "condorcet",
        "pairwise": {x: {y: matrix.n(x, y) for y in ids if y != x} for x in ids},
        **to_jsonable(report),
        "minimax_best": best,
    }


_WITNESS_KINDS = {
    SpoilerWitness: "spoiler",
    MonotonicityWitness: "monotonicity",
    NoShowWitness: "noshow",
    CompromiseWitness: "compromise",
}


def scan_to_dict(scan: SpoilerScan | MonotonicityScan | NoShowScan | CompromiseScan) -> dict:
    """Witnesses (each with its "kind") and tie boundaries of one search; a
    spoiler scan carries its tied subsets as "tie_subsets"."""
    doc = {
        "witnesses": [
            {"kind": _WITNESS_KINDS[type(w)], **to_jsonable(w)} for w in scan.witnesses
        ]
    }
    if isinstance(scan, SpoilerScan):
        doc["tie_subsets"] = to_jsonable(scan.tie_subsets)
    else:
        doc["boundaries"] = to_jsonable(scan.boundaries)
    return doc


def claim_to_dict(claim: PublishedClaim, computed: int | None) -> dict:
    """A published figure next to the computed one; a mismatch is reported as
    an unresolved discrepancy, never reconciled. A claim about one ballot type
    also names the type and its candidate."""
    doc = {
        "kind": claim.kind,
        "published": claim.claimed,
        "computed": computed,
        "status": "match" if computed == claim.claimed else "unresolved discrepancy",
        "note": claim.note,
    }
    if claim.ballot_type is not None:
        doc.update(ballot_type=list(claim.ballot_type), candidate=claim.candidate)
    return doc


# (check, part, section title, text when nothing is found), in report order
_SCAN_SECTIONS = (
    ("spoiler", None, "spoiler", "no spoiler subsets found"),
    ("monotonicity", "downward", "monotonicity (downward)", "no downward paradox found"),
    ("monotonicity", "upward", "monotonicity (upward)", "no upward paradox found"),
    ("noshow", None, "no-show", "no no-show paradox found"),
    ("compromise", None, "compromise", "no compromise failure found"),
)


def _scan_sections(checks: dict):
    for check, part, title, empty in _SCAN_SECTIONS:
        if check in checks:
            yield (checks[check][part] if part else checks[check]), title, empty


def audit_findings(checks: dict) -> bool:
    """True when the Condorcet check found a cycle or any scan a witness."""
    return bool(checks.get("condorcet", {}).get("cycle")) or any(
        body["witnesses"] for body, _, _ in _scan_sections(checks)
    )


def _rounds_lines(doc: dict, roster: CandidateRoster) -> list[str]:
    lines = []
    for rnd in doc["rounds"]:
        extra = f"  exhausted={rnd['exhausted']}"
        if rnd["pending"]:
            extra += f"  not-counted={rnd['pending']}"
        lines.append(f"round {rnd['number']}: {_pairs_text(rnd['tallies'])}{extra}")
        if rnd["eliminated"]:
            lines.append("  eliminated: " + ", ".join(rnd["eliminated"]))
        for transfer in rnd["transfers"]:
            source = transfer["source"] if transfer["source"] is not None else "(uncounted ballots rejoin)"
            parts = [f"{cid} +{votes}" for cid, votes in transfer["to"].items()]
            if transfer["exhausted"]:
                parts.append(f"exhausted +{transfer['exhausted']}")
            lines.append(f"    from {source}: " + ("; ".join(parts) if parts else "nothing"))
    lines.append(f"winner: {label(roster, doc['winner'])}")
    return lines


def _condorcet_lines(doc: dict, roster: CandidateRoster) -> list[str]:
    lines = []
    for x, row in doc["pairwise"].items():
        lines.append("pairwise " + "  ".join(f"{x}>{y}={n}" for y, n in row.items()))
    winner = doc["condorcet_winner"]
    lines.append(
        "condorcet winner: " + (label(roster, winner) if winner else "none")
    )
    if doc["cycle"]:
        lines.append("majority cycle: " + " > ".join(doc["cycle"] + [doc["cycle"][0]]))
    lines.append("minimax scores: " + _pairs_text(doc["minimax_scores"]))
    if doc["minimax_best"]:
        lines.append(f"closest to condorcet (minimax): {label(roster, doc['minimax_best'])}")
    return lines


_WITNESS_TEXT = {
    "spoiler": "remove {{{removed}}}",
    "monotonicity": "shift {focal_candidate} {verb} on {min_count}..{max_count} "
    "ballots of {type} -> {modified}",
    "noshow": "{count} ballots of {type} abstain",
    "compromise": "promote {promoted_candidate} to first on {count}..{max_count} ballots of {type}",
}


def _witness_line(witness: dict) -> str:
    fields = dict(
        witness,
        removed=", ".join(witness.get("removed", ())),
        type=_ranking_text(witness.get("ballot_type")),
        modified=_ranking_text(witness.get("modified_type")),
        verb="down" if witness.get("direction") == "downward" else "up",
    )
    return (
        f"witness: {_WITNESS_TEXT[witness['kind']].format(**fields)}: "
        f"winner {witness['original_winner']} -> {witness['new_winner']}"
    )


def _boundary_line(boundary: dict) -> str:
    target = f" {boundary['candidate']}" if boundary["candidate"] else ""
    return (
        f"tie boundary: {boundary['edit']}{target} at t={boundary['count']} on "
        f"{_ranking_text(boundary['ballot_type'])} (tied: {', '.join(boundary['tied'])})"
    )


def _published_line(claim: dict, prefix: str) -> str:
    return f"{prefix} {claim['published']} vs computed {claim['computed']} ({claim['status']})"


def _sanitize_lines(doc: dict, roster: CandidateRoster) -> list[str]:
    stats = doc["stats"]
    return [
        f"ballots: {stats['total']}",
        f"ballots with an overvote: {stats['ballots_with_overvote']}",
        f"ballots with a skipped rank before a later rank: {stats['ballots_skipped_then_ranked']}",
        f"invalid first rank but an official candidate ranked: {stats['invalid_first_with_official']}",
    ] + [_published_line(note, "note: published figure") for note in doc["notes"]]


# method -> (header line, name of the score line)
_SCORE_LINES = {
    "plurality": ("method: plurality", "tallies"),
    "borda": ("method: borda ({model} model, {n_points} points)", "scores"),
    "bucklin": ("method: bucklin top-{k}", "scores"),
}


def _tabulate_lines(doc: dict, roster: CandidateRoster) -> list[str]:
    method = doc["method"]
    if "rounds" in doc:
        lines = [f"method: {method}"]
        options = doc.get("options")
        if options:
            lines.append(
                f"tie policy: {options['tie_policy']} "
                "(tool decision, no jurisdiction rule implied)"
            )
            if options["buggy_first_round"]:
                lines.append("mode: misconfigured first-round counting enabled")
        return lines + _rounds_lines(doc, roster)
    if method == "condorcet":
        return ["method: condorcet"] + _condorcet_lines(doc, roster)
    header, scores = _SCORE_LINES[method]
    return [
        header.format(**doc),
        f"{scores}: " + _pairs_text(doc["scores"]),
        f"winner: {label(roster, doc['winner'])}",
    ]


def _compare_lines(doc: dict, roster: CandidateRoster) -> list[str]:
    width = max(len(row["method"]) for row in doc["rows"])
    lines = []
    for row in doc["rows"]:
        value = label(roster, row["winner"]) if row["winner"] else "none"
        if row["detail"]:
            value += f" [{row['detail']}]"
        lines.append(f"{row['method']:<{width}}  {value}")
    return lines


def _audit_lines(doc: dict, roster: CandidateRoster) -> list[str]:
    checks = doc["checks"]
    lines = []
    if "condorcet" in checks:
        lines += ["== condorcet =="] + _condorcet_lines(checks["condorcet"], roster)
    for body, title, empty in _scan_sections(checks):
        lines.append(f"== {title} ==")
        lines += [_witness_line(w) for w in body["witnesses"]] or [empty]
        lines += [_boundary_line(b) for b in body.get("boundaries", ())]
    for claim in doc["discrepancies"]:
        lines += ["== published-figure check ==", _published_line(claim, f"{claim['kind']}: published")]
    return lines


_TEXT = {
    "sanitize": _sanitize_lines,
    "tabulate": _tabulate_lines,
    "compare": _compare_lines,
    "audit": _audit_lines,
}


def render_text(doc: dict, roster: CandidateRoster) -> str:
    """The text format of a command's report, from its document alone; the
    roster only supplies candidate names."""
    return "\n".join(_TEXT[doc["command"]](doc, roster)) + "\n"
