"""Seeded input generators and the workload table.

Every generator takes the seed as an argument and writes the CVR and roster
files the CLI reads, so the program under test only ever sees generated
files. The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from reference import clean_entries, irv

MULTIROUND_CANDIDATES = 7
MULTIROUND_TYPES = 150
MULTIROUND_COUNTS = (1, 2, 3, 4, 5)  # each used by one type in five
# its audit finds witnesses in four of the five scans and 436 tie boundaries
MULTIROUND_SHAPE_SEED = 2

BULK_OFFICIALS = 8
BULK_WRITEINS = 2
BULK_BALLOTS = 7500
BULK_SLOTS = 6
BULK_DISTINCT_SHARE = 3  # one raw pattern in three is distinct


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # argv of each CLI command of one pass, in order, with {cvr}, {roster}
    # and {work} filled in at run time
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1-audit",
            "Table 1 profile, 3 candidates: the four t-scans re-tabulate 87,945 "
            "times and ingest is nil",
            (("audit", "--fixture", "oakland-table1", "--checks", "all"),),
        ),
        Workload(
            "synthetic-cvr-buggy-audit",
            "26,569-ballot raw CVR with 22 distinct patterns, audited on the "
            "pending/flagged buggy-first-round path",
            (
                (
                    "audit", "--input", "{cvr}", "--roster", "{roster}",
                    "--buggy-first-round", "--checks", "all",
                ),
            ),
        ),
        Workload(
            "generated-multiround-audit",
            f"{MULTIROUND_CANDIDATES} candidates, {MULTIROUND_TYPES} types of "
            f"{min(MULTIROUND_COUNTS)}-{max(MULTIROUND_COUNTS)} ballots, 5+ rounds: "
            "many short t-scans and many tie boundaries",
            (
                (
                    "audit", "--input", "{cvr}", "--roster", "{roster}",
                    "--checks", "all", "--spoiler-max-size", "2",
                ),
            ),
        ),
        Workload(
            "bulk-cvr-ingest",
            f"{BULK_BALLOTS} raw ballots, 1 in {BULK_DISTINCT_SHARE} patterns "
            "distinct: sanitize, tabulate and compare with no scans",
            (
                ("sanitize", "--input", "{cvr}", "--roster", "{roster}", "--output", "{work}/clean.jsonl"),
                ("tabulate", "--input", "{cvr}", "--roster", "{roster}", "--method", "rcv"),
                ("compare", "--input", "{cvr}", "--roster", "{roster}"),
            ),
        ),
    )
}


def _write_roster(path: str, officials: list[str], writeins: list[str]) -> None:
    doc = {
        "candidates": [{"id": c, "name": f"Candidate {c}"} for c in officials]
        + [{"id": c, "name": f"Write-in {c}", "writein": True} for c in writeins]
    }
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(doc, sink)


def _write_cvr(path: str, ballots: list[tuple[str, list[list[str]]]]) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        for ballot_id, ranks in ballots:
            sink.write(json.dumps({"ballot_id": ballot_id, "ranks": ranks}, separators=(",", ":")) + "\n")


def synthetic_fixture(seed: int, cvr: str, roster: str) -> None:
    """The built-in synthetic Oakland CVR, its lines shuffled by the seed.

    The audit aggregates ballots into a profile, so line order changes the
    input bytes but not the report.
    """
    from rcv_forensics import fixture_roster, load_builtin_fixture

    ballots = load_builtin_fixture("oakland-full-synthetic")
    random.Random(seed).shuffle(ballots)
    _write_cvr(cvr, [(b.ballot_id, [list(s) for s in b.slots]) for b in ballots])
    r = fixture_roster("oakland-full-synthetic")
    _write_roster(
        roster,
        [c.id for c in r.candidates if not c.is_writein],
        [c.id for c in r.candidates if c.is_writein],
    )


def _multiround_shape() -> dict[tuple[int, ...], int]:
    """The generated profile up to candidate names: rankings of candidate
    indices with their ballot counts.

    Every bullet vote is present, the other rankings cycle through lengths
    3..n, and the counts are a shuffle of a fixed multiset. The draw is
    repeated until the profile's own tabulation has no elimination tie and
    takes at least five counting rounds.
    """
    n = MULTIROUND_CANDIDATES
    rng = random.Random(MULTIROUND_SHAPE_SEED)
    while True:
        sizes = [MULTIROUND_COUNTS[i % len(MULTIROUND_COUNTS)] for i in range(MULTIROUND_TYPES)]
        rng.shuffle(sizes)
        rankings = dict.fromkeys((c,) for c in range(n))
        while len(rankings) < MULTIROUND_TYPES:
            length = 3 + len(rankings) % (n - 2)
            rankings.setdefault(tuple(rng.sample(range(n), length)))
        shape = dict(zip(rankings, sizes))
        result = irv(list(shape.items()), range(n), ())
        if result is not None and len(result[1]) >= 5:
            return shape


def multiround_cvr(seed: int, cvr: str, roster: str) -> None:
    """The fixed shape with candidate names assigned, and the ballots
    ordered, by the seed. Scan cost depends on the shape alone, so it is the
    same for every seed, while the bytes the program reads are not."""
    cands = [chr(ord("A") + i) for i in range(MULTIROUND_CANDIDATES)]
    rng = random.Random(seed)
    names = rng.sample(cands, len(cands))
    ballots = [
        [[names[i]] for i in ranking]
        for ranking, count in _multiround_shape().items()
        for _ in range(count)
    ]
    rng.shuffle(ballots)
    _write_cvr(cvr, [(f"g-{i:06d}", ranks) for i, ranks in enumerate(ballots, 1)])
    _write_roster(roster, cands, [])


def _raw_pattern(rng: random.Random, cands: list[str], weights: list[int]):
    """One as-cast ballot: every slot written, skips and overvotes included,
    and the same candidate free to appear twice."""
    ranked = rng.randint(1, BULK_SLOTS)
    slots = []
    for _ in range(ranked):
        u = rng.random()
        if u < 0.06:
            slots.append(())
        elif u < 0.10:
            slots.append(tuple(sorted(set(rng.choices(cands, weights, k=2)))))
        else:
            slots.append(tuple(rng.choices(cands, weights)))
    return tuple(slots) + ((),) * (BULK_SLOTS - ranked)


def bulk_raw_ballots(seed: int):
    """Officials, write-ins and raw ballots (as slot tuples) in file order.

    Exactly one ballot in BULK_DISTINCT_SHARE has a pattern of its own; the
    rest repeat those patterns. A draw whose tabulation would tie for last
    place is drawn again, so that no command exits on a tie.
    """
    officials = [f"C{i}" for i in range(1, BULK_OFFICIALS + 1)]
    writeins = [f"W{i}" for i in range(1, BULK_WRITEINS + 1)]
    cands = officials + writeins
    weights = [10] * BULK_OFFICIALS + [1] * BULK_WRITEINS
    rng = random.Random(seed)
    while True:
        patterns: dict[tuple, None] = {}
        while len(patterns) < BULK_BALLOTS // BULK_DISTINCT_SHARE:
            patterns.setdefault(_raw_pattern(rng, cands, weights), None)
        pool = list(patterns)
        ballots = pool + rng.choices(pool, k=BULK_BALLOTS - len(pool))
        rng.shuffle(ballots)
        if irv(clean_entries(ballots, writeins), cands, writeins) is not None:
            return officials, writeins, ballots


def bulk_cvr(seed: int, cvr: str, roster: str) -> None:
    officials, writeins, ballots = bulk_raw_ballots(seed)
    _write_cvr(cvr, [(f"b-{i:06d}", [list(s) for s in slots]) for i, slots in enumerate(ballots, 1)])
    _write_roster(roster, officials, writeins)
