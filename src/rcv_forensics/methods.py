"""Winner-selection methods: RCV (with optional bug replication), plurality,
plurality runoff, Borda for partial ballots, Bucklin top-k, and Condorcet
analysis with minimax scores.

The RCV engine supports a faithful replication of the Alameda County
tabulator misconfiguration: in the first round of counting after write-in
elimination, ballots whose as-cast first rank held no valid candidate are not
counted for anyone ("pending"); after any elimination they rejoin normally.
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
    previously uncounted (pending) ballots rejoining the count."""

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


def _transfer(source: str | None, moves: dict[str | None, int]) -> TransferRecord:
    """Record ballots moved away from source; the None key counts exhausted ones."""
    return TransferRecord(
        source,
        {k: v for k, v in sorted(moves.items(), key=lambda kv: str(kv[0])) if k},
        moves.get(None, 0),
    )


def _top(ranking: Ranking, eliminated: set[str]) -> str | None:
    for cid in ranking:
        if cid not in eliminated:
            return cid
    return None


def _tabulate(
    roster: CandidateRoster,
    entries: Sequence[Entry],
    options: RcvOptions,
    record: bool,
) -> tuple[str, list[RoundRecord] | None]:
    total = sum(count for _, _, count in entries)
    if total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    roster_ids = roster.ids()
    eliminated: set[str] = set()
    rounds: list[RoundRecord] = []

    writeins = roster.writein_ids()
    if options.writein_policy is WriteinPolicy.ELIMINATE_FIRST and writeins:
        # Batch step: all write-ins leave at once, recorded as round 0.
        wi_order = tuple(sorted(writeins, key=roster.index))
        if record:
            tallies = {cid: 0 for cid in roster_ids}
            exhausted = 0
            for ranking, _, count in entries:
                top = _top(ranking, eliminated)
                if top is None:
                    exhausted += count
                else:
                    tallies[top] += count
            moves: dict[str, dict[str | None, int]] = {w: {} for w in wi_order}
            for ranking, _, count in entries:
                top = _top(ranking, eliminated)
                if top in writeins:
                    nxt = _top(ranking, writeins)
                    moves[top][nxt] = moves[top].get(nxt, 0) + count
            transfers = tuple(_transfer(w, m) for w, m in moves.items())
            rounds.append(RoundRecord(0, tallies, wi_order, exhausted, 0, transfers))
        eliminated |= writeins

    hold_flagged = options.buggy_first_round
    round_no = 1
    while True:
        tallies = {cid: 0 for cid in roster_ids if cid not in eliminated}
        if not tallies:
            raise ValidationError("no candidates left to tabulate")
        exhausted = 0
        pending = 0
        for ranking, flagged, count in entries:
            top = _top(ranking, eliminated)
            if top is None:
                exhausted += count
            elif hold_flagged and flagged:
                pending += count
            else:
                tallies[top] += count
        continuing_votes = total - exhausted - pending

        winner = None
        if continuing_votes > 0:
            for cid, votes in tallies.items():
                if 2 * votes > continuing_votes:
                    winner = cid
                    break
        if winner is None and len(tallies) == 1:
            winner = next(iter(tallies))
        if winner is not None:
            if record:
                rounds.append(RoundRecord(round_no, tallies, (), exhausted, pending, ()))
            return winner, rounds if record else None

        low = min(tallies.values())
        tied = [cid for cid, votes in tallies.items() if votes == low]
        if len(tied) > 1 and options.tie_policy is TiePolicy.ERROR:
            raise TieError(tied, f"round {round_no} elimination")
        loser = min(tied)
        after = eliminated | {loser}

        if record:
            moves2: dict[str | None, int] = {}
            for ranking, flagged, count in entries:
                if hold_flagged and flagged:
                    continue
                if _top(ranking, eliminated) == loser:
                    nxt = _top(ranking, after)
                    moves2[nxt] = moves2.get(nxt, 0) + count
            transfer_rows = [_transfer(loser, moves2)]
            if pending:
                rejoin: dict[str | None, int] = {}
                for ranking, flagged, count in entries:
                    if not flagged:
                        continue
                    if _top(ranking, eliminated) is None:
                        continue  # was exhausted, never pending
                    nxt = _top(ranking, after)
                    rejoin[nxt] = rejoin.get(nxt, 0) + count
                transfer_rows.append(_transfer(None, rejoin))
            rounds.append(
                RoundRecord(
                    round_no, tallies, (loser,), exhausted, pending, tuple(transfer_rows)
                )
            )
        eliminated = after
        hold_flagged = False
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
    high = max(tallies.values())
    leaders = [cid for cid, votes in tallies.items() if votes == high]
    if len(leaders) > 1:
        raise TieError(leaders, "plurality")
    return tallies, leaders[0]


def plurality_runoff(profile: PreferenceProfile) -> TabulationResult:
    """Eliminate all but the two candidates with the most first-place votes,
    then decide head to head with transferred ballots."""
    total = profile.total()
    if total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    roster = profile.roster
    tallies = profile.first_place_tally()
    receiving = [cid for cid in roster.ids() if tallies[cid] > 0]
    if len(receiving) < 2:
        raise ValidationError("plurality runoff needs at least two candidates receiving votes")
    ranked = sorted(roster.ids(), key=lambda cid: -tallies[cid])
    if len(ranked) > 2 and tallies[ranked[1]] == tallies[ranked[2]]:
        cut = tallies[ranked[1]]
        raise TieError(
            [cid for cid in roster.ids() if tallies[cid] == cut], "runoff qualification"
        )
    finalists = set(ranked[:2])
    eliminated = tuple(cid for cid in roster.ids() if cid not in finalists)

    entries = _entries_of(profile)
    exhausted1 = sum(c for r, _, c in entries if not r)
    moves: dict[str, dict[str | None, int]] = {cid: {} for cid in eliminated}
    for ranking, _, count in entries:
        if not ranking or ranking[0] in finalists:
            continue
        nxt = next((cid for cid in ranking if cid in finalists), None)
        src = moves[ranking[0]]
        src[nxt] = src.get(nxt, 0) + count
    transfers = tuple(_transfer(cid, m) for cid, m in moves.items())
    round1 = RoundRecord(1, tallies, eliminated, exhausted1, 0, transfers)

    final: dict[str, int] = {cid: 0 for cid in roster.ids() if cid in finalists}
    exhausted2 = 0
    for ranking, _, count in entries:
        top = next((cid for cid in ranking if cid in finalists), None)
        if top is None:
            exhausted2 += count
        else:
            final[top] += count
    round2 = RoundRecord(2, final, (), exhausted2, 0, ())
    pair = list(final.items())
    if pair[0][1] == pair[1][1]:
        raise TieError([cid for cid, _ in pair], "runoff final round")
    winner = max(final, key=lambda cid: final[cid])
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
    high = max(scores.values())
    leaders = [cid for cid, pts in scores.items() if pts == high]
    if len(leaders) > 1:
        raise TieError(leaders, f"borda ({config.model.value})")
    return scores, leaders[0]


def bucklin_topk(profile: PreferenceProfile, k: int) -> tuple[dict[str, int], str]:
    """Score = ballots ranking the candidate within the top k positions."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    scores = {cid: 0 for cid in profile.roster.ids()}
    for (ranking, _), count in profile.entries.items():
        for cid in ranking[:k]:
            scores[cid] += count
    high = max(scores.values())
    leaders = [cid for cid, pts in scores.items() if pts == high]
    if len(leaders) > 1:
        raise TieError(leaders, f"bucklin top-{k}")
    return scores, leaders[0]


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
    scores = report.minimax_scores
    low = min(scores.values())
    leaders = [cid for cid, s in scores.items() if s == low]
    if len(leaders) > 1:
        raise TieError(leaders, "minimax")
    return leaders[0]
