"""Independent reference results the benchmark checks the CLI's outputs against.

This module imports nothing from ``rcv_forensics``: it re-derives Alameda
sanitization, the clean-CVR bytes, instant-runoff rounds, pairwise counts and
the plurality winner by the simplest loops that state the rules, so that a
faster but wrong program cannot pass by agreeing with itself. Every output
is also pinned by sha256 at the default seed, as the seed commit wrote it.
"""

from __future__ import annotations

import json

DEFAULT_SEED = 1

# sha256 of each command's standard output and output file, per command of a
# pass, at DEFAULT_SEED on the seed commit. The table1 and synthetic reports
# are the same for every seed: the seed only reorders the synthetic CVR.
PINNED = {
    "table1-audit": [
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "3c75e241b3bca851e512249114031bfb5d1daf52b6cce133773c5e22c91aec47",
        ],
    ],
    "synthetic-cvr-buggy-audit": [
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "f6db96305d8057c83a4b9cd17cc54b7316700f60f5ec7e6ed759f6ba5a9ba0ec",
        ],
    ],
    "generated-multiround-audit": [
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "d9a238e5a9c12912ad9a4e511b3a18b1522997d4a9f1a897852b11cebc291dd3",
        ],
    ],
    "bulk-cvr-ingest": [
        [
            "531966f2c4b678e1b807cd7568925850f8fe11763a3422470ca9d95965edba14",
            "0f58dcb80c7469e1f497752d14a6a23f465c1dcc9863311726b3f04519406354",
        ],
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "9c609d4ce24436c681bf24323aad9e460a3a0ee8e946d1793f7b406f8dd7159d",
        ],
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "c2b03552322d39d973022b712681f6407d4f1aad75949a4746ba1dab7c0c40b4",
        ],
    ],
}


def sanitize(slots, writeins) -> tuple[tuple[str, ...], bool]:
    """Alameda rules: skipped ranks are ignored, an overvote ends the ballot,
    a repeated candidate is ignored."""
    ranking: list[str] = []
    for slot in slots:
        if len(slot) > 1:
            break
        if slot and slot[0] not in ranking:
            ranking.append(slot[0])
    first = slots[0]
    return tuple(ranking), len(first) == 0 or all(c in writeins for c in first)


def clean_entries(raw, writeins) -> list[tuple[tuple[str, ...], int]]:
    """(ranking, count) of the sanitized rankings of raw slot tuples."""
    counts: dict[tuple[str, ...], int] = {}
    for slots in raw:
        ranking, _ = sanitize(slots, writeins)
        counts[ranking] = counts.get(ranking, 0) + 1
    return list(counts.items())


def sanitize_stats(raw, writeins) -> dict:
    """The ``stats`` block of a sanitize report: ballots with an overvote,
    with a skipped rank before a ranked one, and with an invalid first rank
    but an official candidate ranked."""
    overvote = skipped = invalid_first = 0
    for slots in raw:
        overvote += any(len(slot) > 1 for slot in slots)
        filled = [bool(slot) for slot in slots]
        skipped += any(not a and b for i, a in enumerate(filled) for b in filled[i + 1 :])
        ranking, flag = sanitize(slots, writeins)
        invalid_first += flag and any(c not in writeins for c in ranking)
    return {
        "total": len(raw),
        "ballots_with_overvote": overvote,
        "ballots_skipped_then_ranked": skipped,
        "invalid_first_with_official": invalid_first,
    }


def clean_cvr_bytes(ballots, writeins) -> bytes:
    """The clean CVR that ``sanitize --output`` must write for these
    (ballot_id, slots) pairs."""
    lines = []
    for ballot_id, slots in ballots:
        ranking, flag = sanitize(slots, writeins)
        lines.append(
            '{"ballot_id":%s,"ranks":[%s],"raw_first_invalid":%s}\n'
            % (
                json.dumps(ballot_id),
                ",".join("[%s]" % json.dumps(c) for c in ranking),
                "true" if flag else "false",
            )
        )
    return "".join(lines).encode("utf-8")


def irv(entries, candidates, writeins):
    """Instant runoff with write-ins eliminated first and no tie-breaking.

    ``entries`` is a list of (ranking, count). Returns (winner, rounds), where
    rounds holds each counting round's tallies of continuing candidates, or
    None when an elimination round ties for last place.
    """
    out = set(writeins)
    total = sum(n for _, n in entries)
    rounds = []
    while True:
        tallies = {c: 0 for c in candidates if c not in out}
        exhausted = 0
        for ranking, n in entries:
            top = next((c for c in ranking if c not in out), None)
            if top is None:
                exhausted += n
            else:
                tallies[top] += n
        rounds.append(tallies)
        continuing = total - exhausted
        leaders = [c for c, v in tallies.items() if 2 * v > continuing]
        if leaders or len(tallies) == 1:
            return (leaders or list(tallies))[0], rounds
        low = min(tallies.values())
        last = [c for c, v in tallies.items() if v == low]
        if len(last) > 1:
            return None
        out.add(last[0])


def pairwise(entries, candidates) -> dict:
    """n(x, y) = ballots ranking x above y, unranked below every ranked."""
    counts = {x: {y: 0 for y in candidates if y != x} for x in candidates}
    for ranking, n in entries:
        for x in candidates:
            for y in candidates:
                if x == y or x not in ranking:
                    continue
                if y not in ranking or ranking.index(x) < ranking.index(y):
                    counts[x][y] += n
    return counts


def plurality_winner(entries, candidates):
    tallies = {c: 0 for c in candidates}
    for ranking, n in entries:
        if ranking:
            tallies[ranking[0]] += n
    high = max(tallies.values())
    leaders = [c for c, v in tallies.items() if v == high]
    return leaders[0] if len(leaders) == 1 else None
