"""Built-in fixtures for the November 2022 Oakland District 4 School Director
contest, plus the six-ballot sanitization example set.

``oakland-table1`` is the published three-candidate preference profile
(write-ins disregarded), 26,432 ballots. ``oakland-full-synthetic`` is a
reconstructed raw CVR (26,569 ballots) that is NOT the real cast vote record:
it redistributes a handful of bullet ballots onto write-in or skipped first
ranks so that every published round total is reproduced exactly, in both the
correct and the misconfigured tabulation modes. ``table2-examples`` holds six
raw ballots that Alameda County's rules all normalize to A>B.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cvr import Candidate, CandidateRoster, RawBallot
from .profiles import PreferenceProfile, Ranking


class UnknownFixtureError(ValueError):
    pass


TABLE1_COUNTS: dict[Ranking, int] = {
    ("H", "M", "R"): 2283,
    ("H", "M"): 1280,
    ("H", "R", "M"): 1807,
    ("H", "R"): 530,
    ("H",): 2327,
    ("M", "H", "R"): 1734,
    ("M", "H"): 2460,
    ("M", "R", "H"): 1421,
    ("M", "R"): 729,
    ("M",): 1846,
    ("R", "H", "M"): 2171,
    ("R", "H"): 924,
    ("R", "M", "H"): 2246,
    ("R", "M"): 934,
    ("R",): 3740,
}

_OFFICIALS = (
    Candidate("H", "Mike Hutchinson"),
    Candidate("M", "Pecolia Manigo"),
    Candidate("R", "Nick Resnick"),
)
_WRITEINS = (
    Candidate("WI1", "Write-in 1", is_writein=True),
    Candidate("WI2", "Write-in 2", is_writein=True),
)

_TABLE1_ROSTER = CandidateRoster(_OFFICIALS)

# Conversions applied to the bullet-ballot rows when building the synthetic
# full CVR: (candidate, moved to write-in first, moved to skipped first).
_SYNTHETIC_SPLITS = (("H", 80, 35), ("M", 14, 23), ("R", 38, 23))
_SYNTHETIC_WRITEIN_ONLY = 137


def _table2_raw_ballots() -> list[RawBallot]:
    rows: list[tuple[tuple[str, ...], ...]] = [
        (("A",), ("B",), (), (), ()),
        ((), (), ("A",), ("B",), ()),
        ((), ("A",), (), (), ("B",)),
        (("A",), ("B",), ("C", "D"), ("E",), ()),
        ((), ("A",), (), ("B",), ("C", "D")),
        (("A",), ("A",), ("B",), (), ("B",)),
    ]
    return [RawBallot(f"t2-{i}", slots) for i, slots in enumerate(rows, start=1)]


def _synthetic_raw_ballots() -> list[RawBallot]:
    reduced = dict(TABLE1_COUNTS)
    for cid, to_writein, to_skip in _SYNTHETIC_SPLITS:
        reduced[(cid,)] -= to_writein + to_skip

    ballots: list[RawBallot] = []
    serial = 0

    def add(slots: tuple[tuple[str, ...], ...], count: int) -> None:
        nonlocal serial
        for _ in range(count):
            serial += 1
            ballots.append(RawBallot(f"syn-{serial:05d}", slots))

    for ranking, count in reduced.items():
        add(tuple((cid,) for cid in ranking), count)
    for cid, to_writein, to_skip in _SYNTHETIC_SPLITS:
        add((("WI1",), (cid,)), to_writein)
        add(((), (cid,)), to_skip)
    add((("WI1",),), _SYNTHETIC_WRITEIN_ONLY)
    return ballots


# name -> (roster, builder); fixtures are built on request, never at import
_FIXTURES = {
    "oakland-full-synthetic": (CandidateRoster(_OFFICIALS + _WRITEINS), _synthetic_raw_ballots),
    "oakland-table1": (
        _TABLE1_ROSTER, lambda: PreferenceProfile.from_counts(_TABLE1_ROSTER, TABLE1_COUNTS)
    ),
    "table2-examples": (
        CandidateRoster(tuple(Candidate(c, c) for c in "ABCDE")), _table2_raw_ballots
    ),
}
FIXTURE_NAMES = tuple(_FIXTURES)


def _fixture(name: str):
    if name not in _FIXTURES:
        available = ", ".join(FIXTURE_NAMES)
        raise UnknownFixtureError(f"unknown fixture {name!r}; available: {available}")
    return _FIXTURES[name]


def load_builtin_fixture(name: str) -> PreferenceProfile | list[RawBallot]:
    """Return the named fixture: an aggregated profile for ``oakland-table1``,
    raw ballots for the other two."""
    return _fixture(name)[1]()


def fixture_roster(name: str) -> CandidateRoster:
    return _fixture(name)[0]


@dataclass(frozen=True)
class PublishedClaim:
    """A figure stated in published accounts of this election that the tool
    re-derives; mismatches are reported, never silently reconciled."""

    kind: str
    claimed: int
    ballot_type: tuple[str, ...] | None = None
    candidate: str | None = None
    note: str = ""


PUBLISHED_CLAIMS: dict[str, tuple[PublishedClaim, ...]] = {
    "oakland-table1": (
        PublishedClaim(
            kind="downward-shift-max",
            claimed=598,
            ballot_type=("R", "M", "H"),
            candidate="R",
            note=(
                "published accounts state R could be shifted down on up to 598 "
                "ballots of this type and still win"
            ),
        ),
    ),
    "oakland-full-synthetic": (
        PublishedClaim(
            kind="invalid-first-with-official",
            claimed=235,
            note=(
                "published accounts count 235 ballots with an invalid first rank "
                "that ranked an official candidate; the published per-candidate "
                "round deltas sum to 213, which this fixture reproduces"
            ),
        ),
    ),
}


def published_claims(name: str) -> tuple[PublishedClaim, ...]:
    return PUBLISHED_CLAIMS.get(name, ())
