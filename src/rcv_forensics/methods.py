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
``_irv`` raises; ``_unique`` picks the single best-scoring candidate of
the other methods or raises ``TieError``.

The spoiler search strikes subsets of losing candidates from a profile.
Striking a candidate from every ranking moves each row to its next
continuing choice and leaves a ranking it empties exhausted, which is what
eliminating the candidate before round 1, with the write-in batch, does; the
total is the same either way. So ``_piled`` piles the profile once, after
the write-in batch, and ``winner_without`` counts each subset on a copy of
those piles: the subset leaves at once, and ``_irv`` runs the rounds without
records, the same round loop as ``rcv_tabulate``'s recorded count.

The t-scans count many edits of one profile, each at every t. A
``PrefixTrie`` piles the whole profile once and keeps, per elimination
prefix reached, that round's tallies and a memo of the round's decisions;
every edit of the profile shares it. An ``EditCount`` holds one edit: t
ballots of a source type move to another ranking or are removed, which
takes t from the tally where the source row counts and adds t where the
destination row counts. While the elimination path is fixed every tally is
therefore affine in t, so one full count at t (``_evaluate``) also finds the
last t' up to which no comparison that ``_decide`` makes in a round changes
sign: a winner's majority margin, or, in a round not won, every majority
margin and the gap from each candidate to the lowest tallies. Tallies that
merely pass each other above the lowest decide nothing and end no segment.
``rcv_winner(count, t)`` answers any t inside that constant-outcome segment
without counting, as a value (the winner, the ids of a tie, or None for
no ballots or candidates): the t-scan path raises nothing. A round at a
prefix depends only on the candidates the two rows count for there and on
t, so the edits of a search that share those (as ballot types with the
same top choices do) share the round: ``_round`` decides it,
O(candidates), once per distinct key at each node.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cvr import ValidationError
from .profiles import PreferenceProfile, ProfileKey, Ranking


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


class PrefixTrie:
    """The elimination prefixes of one profile under one set of options,
    shared by every t-scan edit of it.

    All rows are piled once, after the write-in batch. Each prefix reached
    so far (the losers in order) is a node of a trie rooted at round 1:
    (tallies, children by loser, piles, memo), where memo maps a round key
    (see ``_evaluate``) to the ``_round`` decision of that round. A child is
    built from a copy of its parent's piles by walking out the one new
    loser, the first time some count reaches it, and holds no flagged
    ballots. No key names the search, so the nodes and their memos live as
    long as the trie: one audit's four t-scans share one."""

    __slots__ = ("profile", "options", "total", "root")

    def __init__(self, profile: PreferenceProfile, options: RcvOptions):
        piles = _piled(profile, options)
        self.profile, self.options = profile, options
        self.total = piles.total
        self.root = (piles.standing()[0], {}, piles, {}) if piles.piles else None

    def child(self, node: tuple, loser: str) -> tuple:
        """node's child for loser, built and kept on first use."""
        piles = node[2].copy()
        piles.eliminate((loser,), record=False)
        piles.held = None
        new = node[1][loser] = (piles.standing()[0], {}, piles, {})
        return new


class EditCount:
    """One t-scan edit on a PrefixTrie: t ballots of the source type move to
    the ranking moved_to (same flag), or are removed when it is None.

    segment is (lo, hi, outcome): every t in lo..hi has the outcome of the
    last full count, as ``rcv_winner`` returns it."""

    __slots__ = ("trie", "ranking", "flagged", "moved_to", "source", "segment")

    def __init__(self, trie: PrefixTrie, source: tuple[Ranking, bool], moved_to: Ranking | None):
        self.ranking, self.flagged = source
        self.trie = trie
        self.moved_to = moved_to
        self.source = trie.profile.entries[source]
        self.segment = (1, 0, None)


def _steady(value: int, slope: int) -> float:
    """How far t may rise before value + slope * rise leaves the sign
    (−, 0 or +) that value has."""
    if slope == 0 or value * slope > 0:
        return math.inf
    if value == 0:
        return 0
    return (abs(value) - 1) // abs(slope)


def _round(
    base: dict[str, int], key: tuple | None, tie_policy: TiePolicy
) -> tuple[float, bool | None, str | tuple[str, ...]]:
    """One round of an edit at a prefix whose tallies are base: key is
    (source, destination, t), t ballots leaving the source candidate's
    tally for the destination's (None is no one), or None when no tally
    moves. Returns (rise, won, outcome): won and outcome are ``_decide``'s,
    a tie among them, and rise is how far t may grow with every comparison
    ``_decide`` made keeping its sign, which fixes the decision. A majority
    winner keeps its majority margin; a round not won keeps every
    candidate's majority margin and its lowest set, each candidate outside
    that set staying above the set's members. The other tallies may cross
    each other: no rule reads their order."""
    tallies, slopes = base, {}
    if key is not None:
        source, dest, t = key
        tallies = base.copy()
        for cid, slope in ((source, -1), (dest, 1)):
            if cid is not None:
                slopes[cid] = slope
                tallies[cid] += slope * t
    continuing = sum(tallies.values())
    won, outcome = _decide(tallies, continuing, tie_policy)
    if not slopes or len(tallies) == 1:
        return math.inf, won, outcome
    total_slope = sum(slopes.values())
    if won:
        margin = 2 * tallies[outcome] - continuing
        return _steady(margin, 2 * slopes.get(outcome, 0) - total_slope), won, outcome
    low = min(tallies.values())
    low_slopes = {slopes.get(cid, 0) for cid, n in tallies.items() if n == low}
    if len(low_slopes) > 1:  # the lowest set splits at t + 1
        return 0, won, outcome
    (low_slope,) = low_slopes
    rise = math.inf
    for cid, n in tallies.items():
        slope = slopes.get(cid, 0)
        majority = _steady(2 * n - continuing, 2 * slope - total_slope)
        rise = min(rise, majority, _steady(n - low, slope - low_slope))
    return rise, won, outcome


def _first(ranking: Ranking, continuing: dict[str, int]) -> str | None:
    """The first candidate of ranking still in continuing, or None."""
    for cid in ranking:
        if cid in continuing:
            return cid
    return None


def _evaluate(count: EditCount, t: int) -> tuple[int, int, str | tuple[str, ...] | None]:
    """Count count's edit at t in full: walk the trie from round 1 and take
    each round's decision from the node's memo, deciding it with ``_round``
    on a miss; so a round costs O(candidates) once per distinct key per
    node. The key names the candidates the source and destination rows
    count for, found once at the root: a child's candidates are its
    parent's less the loser, so after an elimination only a row that
    counted for the loser looks again. At a node whose piles are held, a
    flagged row counts for no one.
    Returns the segment (t, hi, outcome): while the elimination path is
    fixed every tally is affine in t, so hi is the last t' up to which every
    round keeps its decision, and so the outcome. With no ballots or no
    candidate left (a ValidationError to ``rcv_tabulate``) it is (t, t, None)."""
    trie = count.trie
    removal = count.moved_to is None
    total = trie.total - t if removal else trie.total
    node = trie.root
    if total == 0 or node is None:
        return t, t, None
    room = count.source - t  # how far past t the segment reaches
    if removal:  # short of the t that empties the profile
        room = min(room, total - 1)
    ranking, moved_to, flagged = count.ranking, count.moved_to or (), count.flagged
    source = _first(ranking, node[0])
    dest = _first(moved_to, node[0])
    while True:
        base, children, piles, memo = node
        key = None
        if source != dest and not (flagged and piles.held is not None):
            key = (source, dest, t)
        decision = memo.get(key)
        if decision is None:
            decision = memo[key] = _round(base, key, trie.options.tie_policy)
        rise, won, outcome = decision
        if rise < room:
            room = rise
        if won is not False:  # a winner, or the ids of a tie
            return t, t + room, outcome
        node = children.get(outcome) or trie.child(node, outcome)
        if source == outcome:
            source = _first(ranking, node[0])
        if dest == outcome:
            dest = _first(moved_to, node[0])


def rcv_winner(count: EditCount, t: int) -> str | tuple[str, ...] | None:
    """The outcome of count's edit at t: the winner, the sorted ids of an
    elimination tie (TiePolicy.ERROR), or None when the edited profile has
    no ballots or no candidate left. A t inside the segment of the last
    full count, which lies inside 0..source, is answered from it alone; any
    other t is checked to be an edit size and counted in full, and its
    segment replaces the last."""
    lo, hi, outcome = count.segment
    if not lo <= t <= hi:
        if not 0 <= t <= count.source:
            raise ValidationError(f"edit size {t} is outside 0..{count.source}")
        lo, hi, outcome = count.segment = _evaluate(count, t)
    return outcome


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
