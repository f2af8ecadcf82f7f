"""Command-line surface: sanitize, tabulate, compare, and audit.

Each command loads its profile (or raw ballots), calls the library and builds
one report document; ``reports`` renders that document as JSON or as text.
A ``--config`` object is turned into flags placed before the explicit ones
and parsed again, so its values are checked like flags and explicit flags win.

Exit codes: 0 success, 2 usage error, 3 data or parse error, 4 a tie in a
context that requires a unique winner. Audit findings are data, not failures,
unless --fail-on-findings is given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import reports
from .cvr import ParseError, RawBallots, ValidationError, load_roster, parse_cvr
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
    sanitize_stats,
)
from .scan import PrefixTrie

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TIE = 4

# the spoiler search counts each subset of losers up to --spoiler-max-size,
# C(losers, k) of each size k, one count apiece; an audit that asks for more
# than this many subsets is refused before any count
SPOILER_MAX_SUBSETS = 100_000


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

    compare_cmd = commands.add_parser(
        "compare", help="one row per method with its winner"
    )
    _add_source_args(compare_cmd)

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

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: a parser holds reference cycles, so
    one built per call would pile up garbage until a full collection."""
    return build_parser()


def _policy_from_args(args) -> SanitizePolicy:
    preset = POLICY_PRESETS[args.policy]
    return SanitizePolicy(
        SkipPolicy(args.skip_policy) if args.skip_policy else preset.skip_policy,
        OvervotePolicy(args.overvote_policy) if args.overvote_policy else preset.overvote_policy,
    )


def _options_from_args(args) -> RcvOptions:
    return RcvOptions(
        writein_policy=WriteinPolicy(args.writein_policy),
        tie_policy=TiePolicy(args.tie_policy),
        buggy_first_round=args.buggy_first_round,
    )


class UsageError(Exception):
    pass


def _load(args, raw: bool = False):
    """The table of raw ballots (``RawBallots``) and their roster if raw is
    set, else the sanitized profile, which must not be empty; the only place
    that checks the source flags and tells a profile fixture from a raw one."""
    if bool(args.fixture) == bool(args.input):
        raise UsageError(f"{args.command}: exactly one of --fixture or --input is required")
    if args.input and not args.roster:
        raise UsageError(f"{args.command}: --roster is required with --input")
    if args.fixture:
        loaded = load_builtin_fixture(args.fixture)
        roster = None if isinstance(loaded, PreferenceProfile) else fixture_roster(args.fixture)
    else:
        with open(args.roster, encoding="utf-8") as stream:
            roster = load_roster(stream)
        with open(args.input, encoding="utf-8") as stream:
            loaded = parse_cvr(stream, roster)
    if raw:
        if roster is None:
            raise UsageError(f"fixture {args.fixture!r} is an aggregated profile, not raw ballots")
        return RawBallots.of(loaded), roster
    profile = loaded if roster is None else sanitize_all(loaded, _policy_from_args(args), roster)[0]
    if profile.total() == 0:
        raise ValidationError("cannot tabulate an empty profile")
    return profile


def _write_report(args, doc: dict, roster, sink=None) -> None:
    """doc as JSON or text, to sink if given, else to --output or stdout."""
    payload = reports.dumps(doc) if args.format == "json" else reports.render_text(doc, roster)
    if sink is None and args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.write(payload)
    else:
        (sink or sys.stdout).write(payload)


def _claims(args, kind: str, computed) -> list[dict]:
    """The fixture's published figures of one kind, each next to computed(claim)."""
    claims = published_claims(args.fixture) if args.fixture else ()
    return [reports.claim_to_dict(c, computed(c)) for c in claims if c.kind == kind]


def _condorcet(profile: PreferenceProfile) -> dict:
    matrix = profile.pairwise_matrix()
    report = condorcet_analysis(matrix)
    try:
        best = minimax_best(report)
    except TieError:
        best = None
    return reports.condorcet_to_dict(matrix, report, best)


def cmd_sanitize(args) -> int:
    table, roster = _load(args, raw=True)
    policy = _policy_from_args(args)
    forms = sanitize_ballots(table, policy, roster)
    stats = sanitize_stats(table, forms, roster)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            emit_clean_cvr(table, forms, sink)
    else:
        emit_clean_cvr(table, forms, sys.stdout)
    doc = {
        "schema_version": 1,
        "command": "sanitize",
        "policy": reports.to_jsonable(policy),
        "stats": reports.to_jsonable(stats),
        "notes": _claims(
            args, "invalid-first-with-official", lambda _: stats.invalid_first_with_official
        ),
    }
    _write_report(args, doc, roster, sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def cmd_tabulate(args) -> int:
    if not args.method:
        raise UsageError("tabulate: --method is required")
    profile = _load(args)
    options = _options_from_args(args)
    doc: dict = {"schema_version": 1, "command": "tabulate"}
    if args.method == "rcv":
        doc.update(reports.to_jsonable(rcv_tabulate(profile, options)))
        doc["options"] = reports.to_jsonable(options)
    elif args.method == "runoff":
        doc.update(reports.to_jsonable(plurality_runoff(profile)))
    elif args.method == "plurality":
        doc.update(reports.scores_to_dict("plurality", *plurality(profile)))
    elif args.method == "borda":
        n_points = len(profile.roster.candidates) if args.n_points is None else args.n_points
        config = BordaConfig(BordaModel(args.model), n_points)
        doc.update(
            reports.scores_to_dict(
                "borda", *borda(profile, config), model=config.model.value, n_points=n_points
            )
        )
    elif args.method == "bucklin":
        doc.update(reports.scores_to_dict("bucklin", *bucklin_topk(profile, args.k), k=args.k))
    else:
        doc.update(_condorcet(profile))
    _write_report(args, doc, profile.roster)
    return EXIT_OK


def cmd_compare(args) -> int:
    profile = _load(args)
    n_points = len(profile.roster.candidates)
    rows = []

    def row(method: str, run) -> None:
        try:
            winner, detail = run(), None
        except TieError as exc:
            winner, detail = None, f"tie among {', '.join(exc.tied)}"
        except ValidationError as exc:  # the method does not apply to this profile
            winner, detail = None, str(exc)
        rows.append({"method": method, "winner": winner, "detail": detail})

    row("rcv", lambda: rcv_tabulate(profile).winner)
    row("plurality", lambda: plurality(profile)[1])
    row("runoff", lambda: plurality_runoff(profile).winner)
    row("borda-optimistic", lambda: borda(profile, BordaConfig(BordaModel.OPTIMISTIC, n_points))[1])
    row("borda-pessimistic", lambda: borda(profile, BordaConfig(BordaModel.PESSIMISTIC, n_points))[1])
    row("bucklin-2", lambda: bucklin_topk(profile, 2)[1])
    report = condorcet_analysis(profile.pairwise_matrix())
    detail = "cycle: " + " > ".join(report.cycle + report.cycle[:1]) if report.cycle else None
    rows.append({"method": "condorcet", "winner": report.condorcet_winner, "detail": detail})
    row("minimax", lambda: minimax_best(report))
    _write_report(args, {"schema_version": 1, "command": "compare", "rows": rows}, profile.roster)
    return EXIT_OK


_T_SCANS = ("monotonicity", "noshow", "compromise")
_ALL_CHECKS = ("condorcet", "spoiler", *_T_SCANS)


def _shift_max(scan, claim) -> int | None:
    """max_count of the last witness on the claim's ballot type and candidate."""
    key = (claim.ballot_type, claim.candidate)
    return next(
        (w.max_count for w in reversed(scan.witnesses) if (w.ballot_type, w.focal_candidate) == key),
        None,
    )


def _check_spoiler_subsets(losers: int, max_size: int) -> None:
    """Refuse a spoiler search over more than SPOILER_MAX_SUBSETS subsets:
    C(losers, k) for each size k up to max_size, summed only as far as the
    bound, so a huge roster costs a few terms."""
    subsets = 0
    for size in range(1, min(max_size, losers) + 1):
        subsets += math.comb(losers, size)
        if subsets > SPOILER_MAX_SUBSETS:
            raise UsageError(
                f"audit: --spoiler-max-size {max_size} over {losers} losing candidates "
                f"gives more than {SPOILER_MAX_SUBSETS:,} subsets to count"
            )


def cmd_audit(args) -> int:
    if args.checks == "all":
        checks = set(_ALL_CHECKS)
    else:
        checks = {c.strip() for c in args.checks.split(",") if c.strip()}
        unknown = checks - set(_ALL_CHECKS)
        if unknown:
            raise UsageError(f"unknown checks: {', '.join(sorted(unknown))}")
        if not checks:
            raise UsageError("audit: --checks must name at least one check")
    if args.spoiler_max_size < 1:
        raise UsageError("audit: --spoiler-max-size must be a positive integer")
    profile = _load(args)
    if "spoiler" in checks:
        _check_spoiler_subsets(len(profile.roster.candidates) - 1, args.spoiler_max_size)
    options = _options_from_args(args)
    bodies: dict = {}
    discrepancies: list[dict] = []
    if "condorcet" in checks:
        bodies["condorcet"] = _condorcet(profile)
    if "spoiler" in checks:
        bodies["spoiler"] = reports.scan_to_dict(
            find_spoilers(profile, options, args.spoiler_max_size)
        )
    # the t-scans share one trie, so each elimination prefix is counted once per audit
    trie = PrefixTrie(profile, options) if checks & set(_T_SCANS) else None
    if "monotonicity" in checks:
        downward = search_monotonicity(profile, options, Direction.DOWNWARD, trie=trie)
        upward = search_monotonicity(profile, options, Direction.UPWARD, trie=trie)
        bodies["monotonicity"] = {
            "downward": reports.scan_to_dict(downward),
            "upward": reports.scan_to_dict(upward),
        }
        discrepancies = _claims(args, "downward-shift-max", lambda c: _shift_max(downward, c))
    if "noshow" in checks:
        bodies["noshow"] = reports.scan_to_dict(search_noshow(profile, options, trie=trie))
    if "compromise" in checks:
        bodies["compromise"] = reports.scan_to_dict(
            search_compromise(profile, options, trie=trie)
        )
    doc = {
        "schema_version": 1,
        "command": "audit",
        "options": reports.to_jsonable(options),
        "checks": bodies,
        "discrepancies": discrepancies,
        "findings": reports.audit_findings(bodies),
    }
    _write_report(args, doc, profile.roster)
    return 1 if args.fail_on_findings and doc["findings"] else EXIT_OK


def _config_flags(args) -> list[str]:
    """The --config object as flags of the parsed command: keys that name no
    option of it (and "command" and "config") are dropped, true is a bare
    switch, and false or null leave the option out."""
    with open(args.config, encoding="utf-8") as stream:
        config = json.load(stream)
    if not isinstance(config, dict):
        raise ValidationError("config file must hold a JSON object")
    flags = []
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in vars(args):
            continue
        if value is None or value is False:
            continue
        flag = "--" + dest.replace("_", "-")
        flags.append(flag if value is True else f"{flag}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                flags = _config_flags(args)
            except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_DATA
            # explicit flags come last, so argparse keeps their values
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        # looked up per call, so a cmd_* replaced on this module is the one run
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIE
    except (ParseError, ValidationError, UnknownFixtureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
