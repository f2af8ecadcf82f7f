"""Report documents and their text rendering.

Every command builds one JSON-able dict; the text renderer consumes that same
dict, so both formats carry identical numbers by construction. Serialization
is deterministic (sorted keys, fixed separators) so identical runs produce
byte-identical output.
"""

from __future__ import annotations

import dataclasses
import enum
import json

from .cvr import CandidateRoster
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
from .methods import CondorcetReport, TabulationResult
from .profiles import PairwiseMatrix
from .sanitize import SanitizeStats


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def label(roster: CandidateRoster, cid: str) -> str:
    candidate = roster.get(cid)
    return cid if candidate.name == cid else f"{candidate.name} ({cid})"


def _ranking_text(ranking) -> str:
    return " > ".join(ranking) if ranking else "(empty)"


def tabulation_to_dict(result: TabulationResult) -> dict:
    return {
        "method": result.method,
        "winner": result.winner,
        "total_ballots": result.total_ballots,
        "rounds": [
            {
                "number": r.number,
                "tallies": dict(r.tallies),
                "eliminated": list(r.eliminated),
                "exhausted": r.exhausted,
                "pending": r.pending,
                "transfers": [
                    {"source": t.source, "to": dict(t.to), "exhausted": t.exhausted}
                    for t in r.transfers
                ],
            }
            for r in result.rounds
        ],
    }


def render_rounds_text(doc: dict, roster: CandidateRoster) -> list[str]:
    lines = []
    for rnd in doc["rounds"]:
        tally_text = "  ".join(f"{cid}={votes}" for cid, votes in rnd["tallies"].items())
        extra = f"  exhausted={rnd['exhausted']}"
        if rnd["pending"]:
            extra += f"  not-counted={rnd['pending']}"
        lines.append(f"round {rnd['number']}: {tally_text}{extra}")
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


def scores_to_dict(method: str, scores: dict[str, int], winner: str | None, **extra) -> dict:
    doc = {"method": method, "scores": dict(scores), "winner": winner}
    doc.update(extra)
    return doc


def pairwise_to_dict(matrix: PairwiseMatrix) -> dict:
    return {
        x: {y: matrix.n(x, y) for y in matrix.candidates if y != x}
        for x in matrix.candidates
    }


def condorcet_to_dict(matrix: PairwiseMatrix, report: CondorcetReport, best: str | None) -> dict:
    return {
        "method": "condorcet",
        "pairwise": pairwise_to_dict(matrix),
        "condorcet_winner": report.condorcet_winner,
        "cycle": list(report.cycle) if report.cycle else None,
        "minimax_scores": dict(report.minimax_scores),
        "minimax_best": best,
    }


def render_condorcet_text(doc: dict, roster: CandidateRoster) -> list[str]:
    lines = []
    for x, row in doc["pairwise"].items():
        lines.append("pairwise " + "  ".join(f"{x}>{y}={n}" for y, n in row.items()))
    winner = doc["condorcet_winner"]
    lines.append(
        "condorcet winner: " + (label(roster, winner) if winner else "none")
    )
    if doc["cycle"]:
        lines.append("majority cycle: " + " > ".join(doc["cycle"] + [doc["cycle"][0]]))
    lines.append(
        "minimax scores: "
        + "  ".join(f"{cid}={s}" for cid, s in doc["minimax_scores"].items())
    )
    if doc["minimax_best"]:
        lines.append(f"closest to condorcet (minimax): {label(roster, doc['minimax_best'])}")
    return lines


def stats_to_dict(stats: SanitizeStats) -> dict:
    return {
        "total": stats.total,
        "ballots_with_overvote": stats.ballots_with_overvote,
        "ballots_skipped_then_ranked": stats.ballots_skipped_then_ranked,
        "invalid_first_with_official": stats.invalid_first_with_official,
    }


def render_stats_text(doc: dict) -> list[str]:
    return [
        f"ballots: {doc['total']}",
        f"ballots with an overvote: {doc['ballots_with_overvote']}",
        f"ballots with a skipped rank before a later rank: {doc['ballots_skipped_then_ranked']}",
        f"invalid first rank but an official candidate ranked: {doc['invalid_first_with_official']}",
    ]


_WITNESS_KINDS = {
    SpoilerWitness: "spoiler",
    MonotonicityWitness: "monotonicity",
    NoShowWitness: "noshow",
    CompromiseWitness: "compromise",
}


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


def render_witness_text(witness: dict) -> str:
    kind = witness["kind"]
    if kind == "spoiler":
        return (
            f"witness: remove {{{', '.join(witness['removed'])}}}: "
            f"winner {witness['original_winner']} -> {witness['new_winner']}"
        )
    if kind == "monotonicity":
        verb = "down" if witness["direction"] == "downward" else "up"
        return (
            f"witness: shift {witness['focal_candidate']} {verb} on "
            f"{witness['min_count']}..{witness['max_count']} ballots of "
            f"{_ranking_text(witness['ballot_type'])} -> "
            f"{_ranking_text(witness['modified_type'])}: "
            f"winner {witness['original_winner']} -> {witness['new_winner']}"
        )
    if kind == "noshow":
        return (
            f"witness: {witness['count']} ballots of "
            f"{_ranking_text(witness['ballot_type'])} abstain: "
            f"winner {witness['original_winner']} -> {witness['new_winner']}"
        )
    if kind == "compromise":
        return (
            f"witness: promote {witness['promoted_candidate']} to first on "
            f"{witness['count']}..{witness['max_count']} ballots of "
            f"{_ranking_text(witness['ballot_type'])}: "
            f"winner {witness['original_winner']} -> {witness['new_winner']}"
        )
    raise ValueError(f"unknown witness kind {kind!r}")


def render_boundary_text(boundary: dict) -> str:
    target = boundary["candidate"] or ""
    target = f" {target}" if target else ""
    return (
        f"tie boundary: {boundary['edit']}{target} at t={boundary['count']} on "
        f"{_ranking_text(boundary['ballot_type'])} (tied: {', '.join(boundary['tied'])})"
    )
