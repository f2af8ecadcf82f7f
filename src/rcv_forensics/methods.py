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
entries). That walk is also the transfer record. ``_irv`` is the one IRV
round loop and ``_decide`` its round rule, which returns a tie that only
``_irv`` raises; the t-scan engine (``scan``) decides its rounds with
``_decide`` too. ``_unique`` picks the single best-scoring candidate of
the other methods or raises ``TieError``.

The spoiler search strikes subsets of losing candidates from a profile.
Striking a candidate from every ranking moves each row to its next
continuing choice and leaves a ranking it empties exhausted, which is what
eliminating the candidate before round 1, with the write-in batch, does; the
total is the same either way. So ``_piled`` piles the profile once, after
the write-in batch, and ``winner_without`` counts each subset on a copy of
those piles: the subset leaves at once, and ``_irv`` runs the rounds without
records, the same round loop as ``rcv_tabulate``'s recorded count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cvr import ValidationError
from .profiles import PreferenceProfile, ProfileKey


class TieError(Exception):
    """A step that needs a unique candidate found several tied ones."""

    def __init__(self, tied: Iterable[str], context: str):
        self.tied = tuple(sorted(tied))
        self.context = context
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


class _Piles:
    """Every profile entry, as a (ranking, flagged, count) row, in the pile
    of its top continuing choice, with each pile's vote total kept as rows
    move; a candidate continues while it has a pile. Rows are never mutated
    and keep the entries' own order, which no output reads: tallies follow
    the roster and transfer records are sorted. held is each pile's total
    of flagged ballots exactly while round 1's flagged ballots are pending
    (buggy mode), else None: the walks before round 1 (the write-in batch,
    a spoiler strike) carry it with their rows, and round 1's elimination
    drops it."""

    __slots__ = ("piles", "votes", "held", "exhausted", "total")

    def __init__(self, ids: Sequence[str], entries: dict[ProfileKey, int], track_held: bool):
        self.piles = piles = {cid: [] for cid in ids}
        self.votes = votes = dict.fromkeys(ids, 0)
        self.held = held = dict.fromkeys(ids, 0) if track_held else None
        exhausted = 0
        for (ranking, flagged), count in entries.items():
            if ranking:
                top = ranking[0]
                piles[top].append((ranking, flagged, count))
                votes[top] += count
                if flagged and held is not None:
                    held[top] += count
            else:
                exhausted += count
        self.exhausted = exhausted
        self.total = exhausted + sum(votes.values())

    def standing(self) -> tuple[dict[str, int], int]:
        """Each continuing candidate's tally in roster order, and the pending
        total: while held, flagged ballots are pending, not counted."""
        votes, held = self.votes, self.held
        if held is None:
            return {cid: votes[cid] for cid in self.piles}, 0
        tallies = {cid: votes[cid] - held[cid] for cid in self.piles}
        return tallies, sum(map(held.__getitem__, self.piles))

    def copy(self) -> _Piles:
        """A copy that can be walked without moving a row of this one; the
        rows themselves are shared."""
        copy = object.__new__(_Piles)
        copy.piles = {cid: pile.copy() for cid, pile in self.piles.items()}
        copy.votes = self.votes.copy()
        copy.held = None if self.held is None else self.held.copy()
        copy.exhausted, copy.total = self.exhausted, self.total
        return copy

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


def _piled(
    profile: PreferenceProfile, options: RcvOptions, rounds: list[RoundRecord] | None = None
) -> _Piles:
    """The profile's entries piled, with the write-in batch (every write-in,
    in roster order) walked out at once: the count as round 1 finds it,
    flagged totals held in buggy mode. When rounds is a list, the batch
    walk is appended to it as round 0."""
    roster = profile.roster
    piles = _Piles(roster.ids(), profile.entries, options.buggy_first_round)
    if options.writein_policy is WriteinPolicy.ELIMINATE_FIRST:
        batch = tuple(sorted(roster.writein_ids(), key=roster.index))
        if batch:
            tallies, exhausted = dict(piles.votes), piles.exhausted
            transfers = piles.eliminate(batch, record=rounds is not None)
            if rounds is not None:
                rounds.append(RoundRecord(0, tallies, batch, exhausted, 0, transfers))
    return piles


def _decide(
    tallies: dict[str, int], continuing: int, tie_policy: TiePolicy
) -> tuple[bool | None, str | tuple[str, ...]]:
    """One round's rule, as (won, candidate): the leader wins with a strict
    majority of the continuing votes or as the last candidate; otherwise the
    lowest tally is eliminated, the lexicographically smallest id of a
    shared lowest under TiePolicy.ELIMINATE_LEX_SMALLEST. Under
    TiePolicy.ERROR a shared lowest is (None, the tied ids sorted)."""
    leader = max(tallies, key=tallies.__getitem__)
    if 2 * tallies[leader] > continuing or len(tallies) == 1:
        return True, leader
    low = min(tallies.values())
    tied = [cid for cid, n in tallies.items() if n == low]
    if len(tied) > 1 and tie_policy is TiePolicy.ERROR:
        return None, tuple(sorted(tied))
    return False, min(tied)


def _irv(count: _Piles, tie_policy: TiePolicy, rounds: list[RoundRecord] | None = None) -> str:
    """The IRV winner of count, the piles as round 1 finds them: rounds run
    until a candidate holds a strict majority of the continuing
    (non-exhausted, non-pending) votes or stands alone. Rows move on count
    itself. When rounds is a list, each round is appended to it."""
    if count.total == 0:
        raise ValidationError("cannot tabulate an empty profile")
    if not count.piles:
        raise ValidationError("no candidates left to tabulate")
    round_no = 1
    while True:
        tallies, pending = count.standing()
        exhausted = count.exhausted
        won, cid = _decide(tallies, count.total - exhausted - pending, tie_policy)
        if won is None:
            raise TieError(cid, f"round {round_no} elimination")
        if won:
            if rounds is not None:
                rounds.append(RoundRecord(round_no, tallies, (), exhausted, pending, ()))
            return cid
        held, rejoin = count.held, None
        if held is not None:  # buggy round 1: the held ballots enter the count next round
            rejoin = {c: held[c] for c in count.piles if c != cid and held[c]}
        transfers = count.eliminate((cid,), rounds is not None, rejoin)
        count.held = None
        if rounds is not None:
            rounds.append(RoundRecord(round_no, tallies, (cid,), exhausted, pending, transfers))
        round_no += 1


def rcv_tabulate(
    profile: PreferenceProfile, options: RcvOptions | None = None
) -> TabulationResult:
    """Run instant-runoff rounds until a candidate holds a strict majority of
    continuing (non-exhausted, non-pending) votes or stands alone."""
    options = options or RcvOptions()
    rounds: list[RoundRecord] = []
    winner = _irv(_piled(profile, options, rounds), options.tie_policy, rounds)
    return TabulationResult("rcv", winner, tuple(rounds), profile.total())


def winner_without(piles: _Piles, removed: Iterable[str], tie_policy: TiePolicy) -> str:
    """The IRV winner of the profile piled as piles (by ``_piled``) with the
    removed candidates struck from the roster and from every ranking, or the
    TieError or ValidationError that ``rcv_tabulate`` of that reduced profile
    raises; piles is left as it was.

    Striking a candidate moves each of its rows to the row's next continuing
    choice, and a ranking left empty is exhausted: that is what eliminating
    the candidate before round 1, in the write-in batch, does. So the
    removed candidates leave one copy of piles at once, those already walked
    out with the batch skipped, and ``_irv`` counts the copy without records.
    """
    count = piles.copy()
    count.eliminate([cid for cid in removed if cid in count.piles], record=False)
    return _irv(count, tie_policy)


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
    count = _Piles(ids, profile.entries, track_held=False)
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
    optimistic = config.model is BordaModel.OPTIMISTIC
    scores = dict.fromkeys(profile.roster.ids(), 0)
    # every candidate's unranked points, summed once; a ranked one has its share taken back
    unranked_total = 0
    for (ranking, _), count in profile.entries.items():
        k = len(ranking)
        if k > n:
            raise ValidationError(
                f"ballot ranks {k} candidates but the point scale covers only {n}"
            )
        unranked = max(n - k - 1, 0) * count if optimistic else 0
        unranked_total += unranked
        for i, cid in enumerate(ranking):
            scores[cid] += (n - 1 - i) * count - unranked
    for cid in scores:
        scores[cid] += unranked_total
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


def _find_majority_cycle(rows: dict[str, dict[str, int]]) -> tuple[str, ...] | None:
    """The first majority cycle a depth-first search meets, visiting
    candidates in row order, rotated to start at its earliest candidate;
    v beats w when ``rows[v][w] > rows[w][v]``.

    The search keeps its own stack of paths, so a cycle through every
    candidate of a large roster needs no recursion.
    """
    candidates = tuple(rows)
    done: set[str] = set()
    for root in candidates:
        if root in done:
            continue
        # the path from root, and for each node on it the candidates it has yet to try
        path, on_path, todo = [root], {root}, [iter(candidates)]
        while path:
            v = path[-1]
            for w in todo[-1]:
                if w == v or rows[v][w] <= rows[w][v] or w in done:
                    continue
                if w in on_path:
                    cycle = tuple(path[path.index(w) :])
                    start = min(range(len(cycle)), key=lambda i: candidates.index(cycle[i]))
                    return cycle[start:] + cycle[:start]
                path.append(w)
                on_path.add(w)
                todo.append(iter(candidates))
                break
            else:
                done.add(path.pop())
                on_path.discard(v)
                todo.pop()
    return None


def condorcet_analysis(rows: dict[str, dict[str, int]]) -> CondorcetReport:
    """Condorcet winner (if any), a strict-majority cycle (if any), and the
    minimax score of each candidate (worst head-to-head loss margin), all
    read from ``pairwise_matrix`` rows. Each unordered pair's margin is read
    once and settles both directions."""
    ids = tuple(rows)
    # the largest margin by which a rival beats x; below 0 when x beats them all
    worst = dict.fromkeys(ids, -math.inf)
    for i, x in enumerate(ids):
        row = rows[x]
        for y in ids[i + 1 :]:
            margin = row[y] - rows[y][x]
            if margin > worst[y]:
                worst[y] = margin
            if -margin > worst[x]:
                worst[x] = -margin
    winner = next((x for x in ids if worst[x] < 0), None)
    minimax = {x: max(margin, 0) for x, margin in worst.items()}
    cycle = None if winner else _find_majority_cycle(rows)
    return CondorcetReport(winner, cycle, minimax)


def minimax_best(report: CondorcetReport) -> str:
    """The candidate with the smallest worst loss margin (closest to beating
    every rival head to head)."""
    return _unique(report.minimax_scores, "minimax", pick=min)
