"""Command-line surface: sanitize, tabulate, compare, and audit.

Exit codes: 0 success, 2 usage error, 3 data or parse error, 4 a tie in a
context that requires a unique winner. Audit findings are data, not failures,
unless --fail-on-findings is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reports
from .cvr import ParseError, ValidationError, load_roster, parse_cvr
from .fixtures import (
    FIXTURE_NAMES,
    UnknownFixtureError,
    fixture_roster,
    load_builtin_fixture,
    published_claims,
)
from .forensics import (
    Direction,
    find_spoilers,
    search_compromise,
    search_monotonicity,
    search_noshow,
)
from .methods import (
    BordaConfig,
    BordaModel,
    RcvOptions,
    TiePolicy,
    TieError,
    WriteinPolicy,
    bucklin_topk,
    borda,
    condorcet_analysis,
    minimax_best,
    plurality,
    plurality_runoff,
    rcv_tabulate,
)
from .profiles import PreferenceProfile
from .sanitize import (
    POLICY_PRESETS,
    SanitizePolicy,
    OvervotePolicy,
    SkipPolicy,
    emit_clean_cvr,
    sanitize_all,
    sanitize_ballots,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TIE = 4


def _add_source_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fixture", choices=FIXTURE_NAMES, help="built-in ballot source")
    sub.add_argument("--input", help="CVR file (newline-delimited JSON)")
    sub.add_argument("--roster", help="roster JSON file (required with --input)")
    sub.add_argument(
        "--policy",
        choices=sorted(POLICY_PRESETS),
        default="alameda",
        help="sanitization preset for raw ballots (default: alameda)",
    )
    sub.add_argument("--skip-policy", choices=[p.value for p in SkipPolicy])
    sub.add_argument("--overvote-policy", choices=[p.value for p in OvervotePolicy])
    sub.add_argument("--config", help="JSON file of option defaults for this run")
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--output", help="write the report here instead of stdout")


def _add_rcv_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--buggy-first-round",
        action="store_true",
        help="replicate the misconfigured tabulator: ballots whose as-cast "
        "first rank held no valid candidate are not counted in the first "
        "round after write-in elimination",
    )
    sub.add_argument(
        "--writein-policy",
        choices=[p.value for p in WriteinPolicy],
        default=WriteinPolicy.ELIMINATE_FIRST.value,
    )
    sub.add_argument(
        "--tie-policy",
        choices=[p.value for p in TiePolicy],
        default=TiePolicy.ERROR.value,
        help="elimination tie handling; both options are tool decisions, no "
        "jurisdiction rule is implied",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcv-forensics",
        description="Ranked-choice-voting tabulation and paradox auditing",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sanitize_cmd = commands.add_parser(
        "sanitize", help="normalize raw ballots under a jurisdiction policy"
    )
    _add_source_args(sanitize_cmd)
    sanitize_cmd.set_defaults(func=cmd_sanitize)

    tabulate_cmd = commands.add_parser("tabulate", help="run one voting method")
    _add_source_args(tabulate_cmd)
    _add_rcv_args(tabulate_cmd)
    tabulate_cmd.add_argument(
        "--method",
        choices=["rcv", "plurality", "runoff", "borda", "bucklin", "condorcet"],
    )
    tabulate_cmd.add_argument(
        "--model", choices=[m.value for m in BordaModel], default="optimistic"
    )
    tabulate_cmd.add_argument("--n-points", type=int, help="borda point scale (default: roster size)")
    tabulate_cmd.add_argument("--k", type=int, default=2, help="bucklin depth")
    tabulate_cmd.set_defaults(func=cmd_tabulate)

    compare_cmd = commands.add_parser(
        "compare", help="one row per method with its winner"
    )
    _add_source_args(compare_cmd)
    compare_cmd.set_defaults(func=cmd_compare)

    audit_cmd = commands.add_parser("audit", help="run the pathology searches")
    _add_source_args(audit_cmd)
    _add_rcv_args(audit_cmd)
    audit_cmd.add_argument(
        "--checks",
        default="all",
        help="comma list of condorcet,spoiler,monotonicity,noshow,compromise (default: all)",
    )
    audit_cmd.add_argument(
        "--spoiler-max-size",
        type=int,
        default=1,
        help="largest subset of losing candidates to remove (at least 1; default: 1)",
    )
    audit_cmd.add_argument(
        "--fail-on-findings",
        action="store_true",
        help="exit 1 when any pathology is found (for CI gates)",
    )
    audit_cmd.set_defaults(func=cmd_audit)

    return parser


def _policy_from_args(args) -> SanitizePolicy:
    policy = POLICY_PRESETS[args.policy]
    skip = SkipPolicy(args.skip_policy) if args.skip_policy else policy.skip_policy
    overvote = (
        OvervotePolicy(args.overvote_policy)
        if args.overvote_policy
        else policy.overvote_policy
    )
    return SanitizePolicy(skip, overvote)


def _options_from_args(args) -> RcvOptions:
    return RcvOptions(
        writein_policy=WriteinPolicy(args.writein_policy),
        tie_policy=TiePolicy(args.tie_policy),
        buggy_first_round=args.buggy_first_round,
    )


def _check_source(parser_name: str, args) -> None:
    if bool(args.fixture) == bool(args.input):
        raise UsageError(f"{parser_name}: exactly one of --fixture or --input is required")
    if args.input and not args.roster:
        raise UsageError(f"{parser_name}: --roster is required with --input")


class UsageError(Exception):
    pass


def _load_raw(args):
    """Raw ballots plus roster, from a fixture or from files."""
    if args.fixture:
        ballots = load_builtin_fixture(args.fixture)
        if isinstance(ballots, PreferenceProfile):
            raise UsageError(
                f"fixture {args.fixture!r} is an aggregated profile, not raw ballots"
            )
        return ballots, fixture_roster(args.fixture)
    with open(args.roster, encoding="utf-8") as stream:
        roster = load_roster(stream)
    with open(args.input, encoding="utf-8") as stream:
        ballots = parse_cvr(stream, roster)
    return ballots, roster


def _load_profile(args) -> PreferenceProfile:
    if args.fixture:
        loaded = load_builtin_fixture(args.fixture)
        if isinstance(loaded, PreferenceProfile):
            return loaded
        roster = fixture_roster(args.fixture)
        profile, _ = sanitize_all(loaded, _policy_from_args(args), roster)
        return profile
    ballots, roster = _load_raw(args)
    profile, _ = sanitize_all(ballots, _policy_from_args(args), roster)
    return profile


def _write_report(args, doc: dict, text_lines: list[str]) -> None:
    payload = reports.dumps(doc) if args.format == "json" else "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_sanitize(args) -> int:
    _check_source("sanitize", args)
    ballots, roster = _load_raw(args)
    policy = _policy_from_args(args)
    cleaned = sanitize_ballots(ballots, policy, roster)
    _, stats = sanitize_all(ballots, policy, roster)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            emit_clean_cvr(cleaned, sink)
        stats_sink = sys.stdout
    else:
        emit_clean_cvr(cleaned, sys.stdout)
        stats_sink = sys.stderr

    notes = []
    if args.fixture:
        for claim in published_claims(args.fixture):
            if claim.kind == "invalid-first-with-official":
                notes.append(
                    {
                        "kind": claim.kind,
                        "published": claim.claimed,
                        "computed": stats.invalid_first_with_official,
                        "status": "unresolved discrepancy"
                        if claim.claimed != stats.invalid_first_with_official
                        else "match",
                        "note": claim.note,
                    }
                )
    doc = {
        "schema_version": 1,
        "command": "sanitize",
        "policy": {
            "skip_policy": policy.skip_policy.value,
            "overvote_policy": policy.overvote_policy.value,
        },
        "stats": reports.stats_to_dict(stats),
        "notes": notes,
    }
    if args.format == "json":
        stats_sink.write(reports.dumps(doc))
    else:
        lines = reports.render_stats_text(doc["stats"])
        for note in notes:
            lines.append(
                f"note: published figure {note['published']} vs computed "
                f"{note['computed']} ({note['status']})"
            )
        stats_sink.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_tabulate(args) -> int:
    _check_source("tabulate", args)
    if not args.method:
        raise UsageError("tabulate: --method is required")
    profile = _load_profile(args)
    roster = profile.roster
    options = _options_from_args(args)
    doc: dict = {"schema_version": 1, "command": "tabulate"}

    if args.method in ("rcv", "runoff"):
        result = rcv_tabulate(profile, options) if args.method == "rcv" else plurality_runoff(profile)
        doc.update(reports.tabulation_to_dict(result))
        lines = [f"method: {doc['method']}"]
        if args.method == "rcv":
            doc["options"] = reports.to_jsonable(options)
            lines.append(
                f"tie policy: {options.tie_policy.value} "
                "(tool decision, no jurisdiction rule implied)"
            )
            if options.buggy_first_round:
                lines.append("mode: misconfigured first-round counting enabled")
        lines += reports.render_rounds_text(doc, roster)
    elif args.method == "plurality":
        tallies, winner = plurality(profile)
        doc.update(reports.scores_to_dict("plurality", tallies, winner))
        lines = [
            "method: plurality",
            "tallies: " + "  ".join(f"{cid}={v}" for cid, v in tallies.items()),
            f"winner: {reports.label(roster, winner)}",
        ]
    elif args.method == "borda":
        n_points = args.n_points or len(roster.candidates)
        config = BordaConfig(BordaModel(args.model), n_points)
        scores, winner = borda(profile, config)
        doc.update(
            reports.scores_to_dict(
                "borda", scores, winner, model=config.model.value, n_points=n_points
            )
        )
        lines = [
            f"method: borda ({config.model.value} model, {n_points} points)",
            "scores: " + "  ".join(f"{cid}={v}" for cid, v in scores.items()),
            f"winner: {reports.label(roster, winner)}",
        ]
    elif args.method == "bucklin":
        scores, winner = bucklin_topk(profile, args.k)
        doc.update(reports.scores_to_dict("bucklin", scores, winner, k=args.k))
        lines = [
            f"method: bucklin top-{args.k}",
            "scores: " + "  ".join(f"{cid}={v}" for cid, v in scores.items()),
            f"winner: {reports.label(roster, winner)}",
        ]
    elif args.method == "condorcet":
        matrix = profile.pairwise_matrix()
        report = condorcet_analysis(matrix)
        try:
            best = minimax_best(report)
        except TieError:
            best = None
        doc.update(reports.condorcet_to_dict(matrix, report, best))
        lines = ["method: condorcet"] + reports.render_condorcet_text(doc, roster)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown method {args.method!r}")

    _write_report(args, doc, lines)
    return EXIT_OK


def cmd_compare(args) -> int:
    _check_source("compare", args)
    profile = _load_profile(args)
    roster = profile.roster
    rows = []

    def row(method: str, run) -> None:
        try:
            winner, detail = run()
        except TieError as exc:
            winner, detail = None, f"tie among {', '.join(exc.tied)}"
        rows.append({"method": method, "winner": winner, "detail": detail})

    row("rcv", lambda: (rcv_tabulate(profile).winner, None))
    row("plurality", lambda: (plurality(profile)[1], None))
    row("runoff", lambda: (plurality_runoff(profile).winner, None))
    n_points = len(roster.candidates)
    row(
        "borda-optimistic",
        lambda: (borda(profile, BordaConfig(BordaModel.OPTIMISTIC, n_points))[1], None),
    )
    row(
        "borda-pessimistic",
        lambda: (borda(profile, BordaConfig(BordaModel.PESSIMISTIC, n_points))[1], None),
    )
    row("bucklin-2", lambda: (bucklin_topk(profile, 2)[1], None))
    report = condorcet_analysis(profile.pairwise_matrix())
    if report.condorcet_winner:
        rows.append({"method": "condorcet", "winner": report.condorcet_winner, "detail": None})
    else:
        detail = None
        if report.cycle:
            detail = "cycle: " + " > ".join(report.cycle + (report.cycle[0],))
        rows.append({"method": "condorcet", "winner": None, "detail": detail})
    row("minimax", lambda: (minimax_best(report), None))

    doc = {"schema_version": 1, "command": "compare", "rows": rows}
    width = max(len(r["method"]) for r in rows)
    lines = []
    for r in rows:
        value = reports.label(roster, r["winner"]) if r["winner"] else "none"
        if r["detail"]:
            value += f" [{r['detail']}]"
        lines.append(f"{r['method']:<{width}}  {value}")
    _write_report(args, doc, lines)
    return EXIT_OK


_ALL_CHECKS = ("condorcet", "spoiler", "monotonicity", "noshow", "compromise")


def cmd_audit(args) -> int:
    _check_source("audit", args)
    if args.checks == "all":
        checks = set(_ALL_CHECKS)
    else:
        checks = {c.strip() for c in args.checks.split(",") if c.strip()}
        unknown = checks - set(_ALL_CHECKS)
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(sorted(unknown))}")
    # also guards values from --config, which bypass argparse's type check
    if not isinstance(args.spoiler_max_size, int) or args.spoiler_max_size < 1:
        raise UsageError("audit: --spoiler-max-size must be a positive integer")
    profile = _load_profile(args)
    roster = profile.roster
    options = _options_from_args(args)

    doc: dict = {
        "schema_version": 1,
        "command": "audit",
        "options": reports.to_jsonable(options),
        "checks": {},
        "discrepancies": [],
    }
    lines: list[str] = []
    findings = False

    def section(title: str, body: dict, empty_note: str) -> None:
        nonlocal findings
        lines.append(f"== {title} ==")
        if body.get("witnesses"):
            findings = True
            for witness in body["witnesses"]:
                lines.append(reports.render_witness_text(witness))
        else:
            lines.append(empty_note)
        for boundary in body.get("boundaries", ()):
            lines.append(reports.render_boundary_text(boundary))

    if "condorcet" in checks:
        matrix = profile.pairwise_matrix()
        report = condorcet_analysis(matrix)
        try:
            best = minimax_best(report)
        except TieError:
            best = None
        body = reports.condorcet_to_dict(matrix, report, best)
        doc["checks"]["condorcet"] = body
        lines.append("== condorcet ==")
        lines += reports.render_condorcet_text(body, roster)
        if report.cycle:
            findings = True

    if "spoiler" in checks:
        scan = find_spoilers(profile, options, args.spoiler_max_size)
        body = reports.scan_to_dict(scan)
        doc["checks"]["spoiler"] = body
        section("spoiler", body, "no spoiler subsets found")

    downward_scan = None
    if "monotonicity" in checks:
        downward_scan = search_monotonicity(profile, options, Direction.DOWNWARD)
        upward_scan = search_monotonicity(profile, options, Direction.UPWARD)
        down_body = reports.scan_to_dict(downward_scan)
        up_body = reports.scan_to_dict(upward_scan)
        doc["checks"]["monotonicity"] = {"downward": down_body, "upward": up_body}
        section("monotonicity (downward)", down_body, "no downward paradox found")
        section("monotonicity (upward)", up_body, "no upward paradox found")

    if "noshow" in checks:
        scan = search_noshow(profile, options)
        body = reports.scan_to_dict(scan)
        doc["checks"]["noshow"] = body
        section("no-show", body, "no no-show paradox found")

    if "compromise" in checks:
        scan = search_compromise(profile, options)
        body = reports.scan_to_dict(scan)
        doc["checks"]["compromise"] = body
        section("compromise", body, "no compromise failure found")

    if args.fixture and downward_scan is not None:
        for claim in published_claims(args.fixture):
            if claim.kind != "downward-shift-max":
                continue
            computed = None
            for witness in downward_scan.witnesses:
                if (
                    witness.ballot_type == claim.ballot_type
                    and witness.focal_candidate == claim.candidate
                ):
                    computed = witness.max_count
            entry = {
                "kind": claim.kind,
                "ballot_type": list(claim.ballot_type or ()),
                "candidate": claim.candidate,
                "published": claim.claimed,
                "computed": computed,
                "status": "unresolved discrepancy"
                if computed != claim.claimed
                else "match",
                "note": claim.note,
            }
            doc["discrepancies"].append(entry)
            lines.append("== published-figure check ==")
            lines.append(
                f"{claim.kind}: published {claim.claimed} vs computed {computed} "
                f"({entry['status']})"
            )

    doc["findings"] = findings
    _write_report(args, doc, lines)
    if args.fail_on_findings and findings:
        return 1
    return EXIT_OK


def _apply_config(args, argv: list[str]) -> None:
    """Fill options from the --config JSON object; explicit flags win."""
    with open(args.config, encoding="utf-8") as stream:
        config = json.load(stream)
    if not isinstance(config, dict):
        raise ValidationError("config file must hold a JSON object")
    for key, value in config.items():
        flag = "--" + str(key).replace("_", "-")
        if any(token == flag or token.startswith(flag + "=") for token in argv):
            continue
        dest = str(key).replace("-", "_")
        if hasattr(args, dest):
            setattr(args, dest, value)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "config", None):
            try:
                _apply_config(args, argv)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_DATA
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIE
    except (ParseError, ValidationError, UnknownFixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
