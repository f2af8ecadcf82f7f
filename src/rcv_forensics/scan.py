"""The t-scan engine of the monotonicity, no-show and compromise searches.
Its one rule shared with the IRV count of ``methods`` is ``_decide``.

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

import math

from .cvr import ValidationError
from .methods import RcvOptions, TiePolicy, _decide, _piled
from .profiles import PreferenceProfile, Ranking


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
