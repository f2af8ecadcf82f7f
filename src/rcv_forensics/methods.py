"""Winner-selection methods: RCV (with optional bug replication), plurality,
plurality runoff, Borda for partial ballots, Bucklin top-k, and Condorcet
analysis with minimax scores.

The RCV engine supports a faithful replication of the Alameda County
tabulator misconfiguration: in the first round of counting after write-in
elimination, ballots whose as-cast first rank held no valid candidate are not
counted for anyone ("pending"); after any elimination they count normally.

IRV and plurality runoff count with ``_Piles``: each entry sits in the pile
of its top continuing choice, and removing candidates walks only their piles,
so a tabulation costs O(entries + ballots moved) rather than O(rounds x
entries). That walk is also the transfer record. ``_unique`` picks the single
best-scoring candidate or raises ``TieError``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cvr import CandidateRoster, ValidationError
from .profiles import PairwiseMatrix, PreferenceProfile, Ranking


class TieError(Exception):
    """A step that needs a unique candidate found several tied ones."""

    def __init__(self, tied: Iterable[str], context: str):
        self.tied = tuple(sorted(tied))
        super().__init__(f"{context}: tie among {', '.join(self.tied)}")


class WriteinPolicy(enum.Enum):
    ELIMINATE_FIRST = "eliminate-first"
    TREAT_AS_CANDIDATES = "treat-as-candidates"


class TiePolicy(enum.Enum):
    # Error is the default: no jurisdiction rule is implied by either option,
    # and silently broken ties would let paradox searches fabricate witnesses.
    ERROR = "error"
    ELIMINATE_LEX_SMALLEST = "lex"


@dataclass(frozen=True)
class RcvOptions:
    writein_policy: WriteinPolicy = WriteinPolicy.ELIMINATE_FIRST
    tie_policy: TiePolicy = TiePolicy.ERROR
    buggy_first_round: bool = False

    def __post_init__(self) -> None:
        if self.buggy_first_round and self.writein_policy is not WriteinPolicy.ELIMINATE_FIRST:
            raise ValidationError(
                "buggy_first_round requires the eliminate-first write-in policy"
            )


@dataclass(frozen=True)
class TransferRecord:
    """Where one eliminated candidate's ballots went; source None marks
    previously uncounted (pending) ballots entering the count."""

    source: str | None
    to: dict[str, int]
    exhausted: int


@dataclass(frozen=True)
class RoundRecord:
    number: int
    tallies: dict[str, int]
    eliminated: tuple[str, ...]
    exhausted: int
    pending: int
    transfers: tuple[TransferRecord, ...]


@dataclass(frozen=True)
class TabulationResult:
    method: str
    winner: str
    rounds: tuple[RoundRecord, ...]
    total_ballots: int


class BordaModel(enum.Enum):
    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


@dataclass(frozen=True)
class BordaConfig:
    model: BordaModel
    n_points: int

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValidationError("n_points must be at least 2")


@dataclass(frozen=True)
class CondorcetReport:
    condorcet_winner: str | None
    cycle: tuple[str, ...] | None
    minimax_scores: dict[str, int]


Entry = tuple[Ranking, bool, int]


def _entries_of(profile: PreferenceProfile) -> list[Entry]:
    return sorted((r, f, c) for (r, f), c in profile.entries.items())


class _Piles:
    """Every entry row in the pile of its top continuing choice, with each
    pile's vote total kept as rows move; a candidate continues while it has
    a pile. The rows are the caller's and are never mutated. held, when
    tracked, is each pile's total of flagged ballots."""

    __slots__ = ("piles", "votes", "held", "exhausted", "total")

    def __init__(self, ids: Sequence[str], entries: Iterable[Entry], track_held: bool):
        self.piles = piles = {cid: [] for cid in ids}
        self.votes = votes = dict.fromkeys(ids, 0)
        self.held = held = dict.fromkeys(ids, 0) if track_held else None
        exhausted = 0
        for row in entries:
            ranking, flagged, count = row
            if ranking:
                top = ranking[0]
                piles[top].append(row)
                votes[top] += count
                if flagged and held is not None:
                    held[top] += count
            else:
                exhausted += count
        self.exhausted = exhausted
        self.total = exhausted + sum(votes.values())

    def eliminate(
        self, removed: Iterable[str], record: bool, rejoin: dict | None = None
    ) -> tuple[TransferRecord, ...]:
        """Take the removed candidates out and walk only their piles: each row
        moves to its next continuing choice or to exhausted. When recording,
        that walk is one TransferRecord per removed candidate, in the given
        order. rejoin, when given, holds where already-counted pending
        ballots go; the removed piles' flagged rows join it, and it becomes a
        trailing record with source None."""
        piles, votes, held = self.piles, self.votes, self.held
        # every removed pile leaves first, so a batch never routes into itself
        walks = [(source, piles.pop(source)) for source in removed]
        moves: dict[str | None, dict[str | None, int]] = {}
        exhausted = 0
        for source, pile in walks:
            to = moves[source] = {}
            for row in pile:
                ranking, flagged, count = row
                for nxt in ranking:
                    if nxt in piles:
                        piles[nxt].append(row)
                        votes[nxt] += count
                        if flagged and held is not None:
                            held[nxt] += count
                        break
                else:
                    nxt = None
                    exhausted += count
                if record:
                    dest = rejoin if flagged and rejoin is not None else to
                    dest[nxt] = dest.get(nxt, 0) + count
        self.exhausted += exhausted
        if not record:
            return ()
        if rejoin:
            moves[None] = rejoin
        return tuple(
            TransferRecord(
                source,
                {k: v for k, v in sorted(to.items(), key=lambda kv: str(kv[0])) if k},
                to.get(None, 0),
            )
            for source, to in moves.items()
        )


def _unique(scores: dict[str, int], context: str, pick=max) -> str:
    """The one candidate with the best score under pick; a shared best is a tie."""
    best = pick(scores.values())
    tied = [cid for cid, score in scores.items() if score == best]
    if len(tied) > 1:
        raise TieError(tied, context)
    return tied[0]


def _tabulate(
    roster: CandidateRoster,
    entries: Sequence[Entry],
    options: RcvOptions,
    record: bool,
) -> tuple[str, list[RoundRecord] | None]:
    count = _Piles(roster.ids(), entries, track_held=options.buggy_first_round)
    if count.total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    rounds: list[RoundRecord] = []

    writeins = roster.writein_ids()
    if options.writein_policy is WriteinPolicy.ELIMINATE_FIRST and writeins:
        # Batch step: all write-ins leave at once, recorded as round 0.
        if record:
            wi_order = tuple(sorted(writeins, key=roster.index))
            tallies, exhausted = dict(count.votes), count.exhausted
            transfers = count.eliminate(wi_order, record)
            rounds.append(RoundRecord(0, tallies, wi_order, exhausted, 0, transfers))
        else:
            count.eliminate(writeins, record)

    piles, votes, held = count.piles, count.votes, count.held
    round_no = 1
    while True:
        if not piles:
            raise ValidationError("no candidates left to tabulate")
        if held is None:
            tallies, pending = {cid: votes[cid] for cid in piles}, 0
        else:  # buggy mode: flagged ballots stay pending through round 1
            tallies = {cid: votes[cid] - held[cid] for cid in piles}
            pending = sum(map(held.__getitem__, piles))
        exhausted = count.exhausted
        winner = max(tallies, key=tallies.__getitem__)
        if 2 * tallies[winner] > count.total - exhausted - pending or len(tallies) == 1:
            if record:
                rounds.append(RoundRecord(round_no, tallies, (), exhausted, pending, ()))
            return winner, rounds if record else None

        low = min(tallies.values())
        tied = [cid for cid, n in tallies.items() if n == low]
        if len(tied) > 1 and options.tie_policy is TiePolicy.ERROR:
            raise TieError(tied, f"round {round_no} elimination")
        loser = min(tied)
        rejoin = None
        if record and held is not None:  # the held ballots enter the count next round
            rejoin = {cid: held[cid] for cid in piles if cid != loser and held[cid]}
        transfers = count.eliminate((loser,), record, rejoin)
        if record:
            rounds.append(
                RoundRecord(round_no, tallies, (loser,), exhausted, pending, transfers)
            )
        held = None
        round_no += 1


def rcv_tabulate(
    profile: PreferenceProfile, options: RcvOptions | None = None
) -> TabulationResult:
    """Run instant-runoff rounds until a candidate holds a strict majority of
    continuing (non-exhausted, non-pending) votes or stands alone."""
    options = options or RcvOptions()
    winner, rounds = _tabulate(profile.roster, _entries_of(profile), options, record=True)
    assert rounds is not None
    return TabulationResult("rcv", winner, tuple(rounds), profile.total())


def rcv_winner(
    roster: CandidateRoster, entries: Sequence[Entry], options: RcvOptions
) -> str:
    """Record-free tabulation for high-volume scans; same engine as rcv_tabulate."""
    winner, _ = _tabulate(roster, entries, options, record=False)
    return winner


def plurality(profile: PreferenceProfile) -> tuple[dict[str, int], str]:
    if profile.total() == 0:
        raise ValidationError("cannot tabulate an empty profile")
    tallies = profile.first_place_tally()
    return tallies, _unique(tallies, "plurality")


def plurality_runoff(profile: PreferenceProfile) -> TabulationResult:
    """Eliminate all but the two candidates with the most first-place votes,
    then decide head to head with transferred ballots."""
    total = profile.total()
    if total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    ids = profile.roster.ids()
    count = _Piles(ids, _entries_of(profile), track_held=False)
    tallies, exhausted = dict(count.votes), count.exhausted
    receiving = [cid for cid in ids if tallies[cid] > 0]
    if len(receiving) < 2:
        raise ValidationError("plurality runoff needs at least two candidates receiving votes")
    ranked = sorted(ids, key=lambda cid: -tallies[cid])
    if len(ranked) > 2 and tallies[ranked[1]] == tallies[ranked[2]]:
        cut = tallies[ranked[1]]
        raise TieError([cid for cid in ids if tallies[cid] == cut], "runoff qualification")
    eliminated = tuple(cid for cid in ids if cid not in ranked[:2])
    transfers = count.eliminate(eliminated, record=True)
    round1 = RoundRecord(1, tallies, eliminated, exhausted, 0, transfers)
    final = {cid: count.votes[cid] for cid in count.piles}
    round2 = RoundRecord(2, final, (), count.exhausted, 0, ())
    winner = _unique(final, "runoff final round")
    return TabulationResult("plurality-runoff", winner, (round1, round2), total)


def borda(
    profile: PreferenceProfile, config: BordaConfig
) -> tuple[dict[str, int], str]:
    """Points per ballot: the i-th ranked candidate earns n_points - i.

    A ballot ranking k candidates gives each unranked candidate
    max(n_points - k - 1, 0) points under the optimistic model and 0 under the
    pessimistic model; the floor keeps optimistic scores at or above
    pessimistic ones in every configuration.
    """
    n = config.n_points
    ids = profile.roster.ids()
    scores = {cid: 0 for cid in ids}
    for (ranking, _), count in profile.entries.items():
        k = len(ranking)
        if k > n:
            raise ValidationError(
                f"ballot ranks {k} candidates but the point scale covers only {n}"
            )
        for i, cid in enumerate(ranking):
            scores[cid] += (n - 1 - i) * count
        if config.model is BordaModel.OPTIMISTIC and k < len(ids):
            unranked_points = max(n - k - 1, 0)
            if unranked_points:
                ranked = set(ranking)
                for cid in ids:
                    if cid not in ranked:
                        scores[cid] += unranked_points * count
    return scores, _unique(scores, f"borda ({config.model.value})")


def bucklin_topk(profile: PreferenceProfile, k: int) -> tuple[dict[str, int], str]:
    """Score = ballots ranking the candidate within the top k positions."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    scores = {cid: 0 for cid in profile.roster.ids()}
    for (ranking, _), count in profile.entries.items():
        for cid in ranking[:k]:
            scores[cid] += count
    return scores, _unique(scores, f"bucklin top-{k}")


def _find_majority_cycle(
    candidates: tuple[str, ...], beats: dict[tuple[str, str], bool]
) -> tuple[str, ...] | None:
    color: dict[str, int] = {}
    stack: list[str] = []

    def dfs(v: str) -> tuple[str, ...] | None:
        color[v] = 1
        stack.append(v)
        for w in candidates:
            if w == v or not beats[(v, w)]:
                continue
            if color.get(w, 0) == 1:
                cycle = tuple(stack[stack.index(w) :])
                return cycle
            if color.get(w, 0) == 0:
                found = dfs(w)
                if found:
                    return found
        color[v] = 2
        stack.pop()
        return None

    for v in candidates:
        if color.get(v, 0) == 0:
            cycle = dfs(v)
            if cycle:
                start = min(range(len(cycle)), key=lambda i: candidates.index(cycle[i]))
                return cycle[start:] + cycle[:start]
    return None


def condorcet_analysis(matrix: PairwiseMatrix) -> CondorcetReport:
    """Condorcet winner (if any), a strict-majority cycle (if any), and the
    minimax score of each candidate (worst head-to-head loss margin)."""
    ids = matrix.candidates
    beats = {
        (x, y): matrix.n(x, y) > matrix.n(y, x) for x in ids for y in ids if x != y
    }
    winner = None
    for x in ids:
        if all(beats[(x, y)] for y in ids if y != x):
            winner = x
            break
    cycle = None if winner else _find_majority_cycle(ids, beats)
    minimax = {
        x: max((max(0, matrix.n(y, x) - matrix.n(x, y)) for y in ids if y != x), default=0)
        for x in ids
    }
    return CondorcetReport(winner, cycle, minimax)


def minimax_best(report: CondorcetReport) -> str:
    """The candidate with the smallest worst loss margin (closest to beating
    every rival head to head)."""
    return _unique(report.minimax_scores, "minimax", pick=min)
