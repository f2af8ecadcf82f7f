"""Ranked-choice-voting forensics toolkit.

Ingests cast vote records, normalizes ballots under configurable jurisdiction
policies, tabulates elections under RCV and four comparison methods
(including a faithful replication of a county tabulator misconfiguration),
and detects Condorcet cycles, spoiler effects, monotonicity paradoxes,
no-show paradoxes, and compromise-vote failures as replayable witnesses.
"""

from .cvr import (
    Candidate,
    CandidateRoster,
    ParseError,
    RawBallot,
    ValidationError,
    emit_cvr,
    load_roster,
    parse_cvr,
)
from .fixtures import (
    FIXTURE_NAMES,
    UnknownFixtureError,
    fixture_roster,
    load_builtin_fixture,
    published_claims,
)
from .forensics import (
    CompromiseScan,
    CompromiseWitness,
    Direction,
    MonotonicityScan,
    MonotonicityWitness,
    NoShowScan,
    NoShowWitness,
    OracleBounds,
    OracleBoundsError,
    PathologyReport,
    SpoilerScan,
    SpoilerWitness,
    TieBoundary,
    brute_force_oracle,
    find_spoilers,
    prefers,
    search_compromise,
    search_monotonicity,
    search_noshow,
    verify_witness,
)
from .methods import (
    BordaConfig,
    BordaModel,
    CondorcetReport,
    RcvOptions,
    RoundRecord,
    TabulationResult,
    TiePolicy,
    TieError,
    TransferRecord,
    WriteinPolicy,
    borda,
    bucklin_topk,
    condorcet_analysis,
    minimax_best,
    plurality,
    plurality_runoff,
    rcv_tabulate,
)
from .profiles import PairwiseMatrix, PreferenceProfile
from .sanitize import (
    ALAMEDA,
    ALASKA,
    MINNEAPOLIS,
    POLICY_PRESETS,
    CleanBallot,
    OvervotePolicy,
    SanitizePolicy,
    SanitizeStats,
    SkipPolicy,
    emit_clean_cvr,
    sanitize_all,
    sanitize_ballot,
    sanitize_ballots,
    sanitize_stats,
)

__version__ = "0.1.0"
