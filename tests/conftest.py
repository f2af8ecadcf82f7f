import random
from pathlib import Path

import pytest

from rcv_forensics import ALAMEDA, fixture_roster, load_builtin_fixture, sanitize_all
from rcv_forensics.cvr import Candidate, CandidateRoster
from rcv_forensics.profiles import PreferenceProfile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def table1():
    return load_builtin_fixture("oakland-table1")


@pytest.fixture(scope="session")
def synthetic_raw():
    return load_builtin_fixture("oakland-full-synthetic")


@pytest.fixture(scope="session")
def synthetic_profile(synthetic_raw):
    profile, _ = sanitize_all(
        synthetic_raw, ALAMEDA, fixture_roster("oakland-full-synthetic")
    )
    return profile


@pytest.fixture(scope="session")
def toy_cycle_profile():
    """48 ballots over A/B/C with a majority cycle (B beats A beats C beats B)
    and no elimination ties on the unmodified count; small enough for the
    brute-force oracle."""
    roster = CandidateRoster(tuple(Candidate(c, c) for c in "ABC"))
    counts = {
        ("A", "B", "C"): 4,
        ("A", "B"): 2,
        ("A", "C", "B"): 3,
        ("A", "C"): 1,
        ("A",): 5,
        ("B", "A", "C"): 4,
        ("B", "A"): 4,
        ("B", "C", "A"): 2,
        ("B", "C"): 1,
        ("B",): 3,
        ("C", "A", "B"): 3,
        ("C", "A"): 2,
        ("C", "B", "A"): 5,
        ("C", "B"): 2,
        ("C",): 7,
    }
    return PreferenceProfile.from_counts(roster, counts)


def make_random_profile(
    rng: random.Random,
    max_candidates: int = 4,
    max_types: int = 6,
    max_count: int = 8,
    flag_rate: float = 0.25,
    writein_rate: float = 0.0,
) -> PreferenceProfile:
    n = rng.randint(2, max_candidates)
    ids = list("ABCD")[:n]
    candidates = [Candidate(cid, cid) for cid in ids]
    if writein_rate and rng.random() < writein_rate:
        candidates.append(Candidate("W", "W", is_writein=True))
        ids.append("W")
    roster = CandidateRoster(tuple(candidates))
    entries = {}
    for _ in range(rng.randint(1, max_types)):
        k = rng.randint(1, len(ids))
        ranking = tuple(rng.sample(ids, k))
        flag = rng.random() < flag_rate
        key = (ranking, flag)
        entries[key] = entries.get(key, 0) + rng.randint(1, max_count)
    return PreferenceProfile(roster, entries)


def generated_cvr(tmp_path: Path, monkeypatch) -> tuple[Path, Path]:
    """Paths of the benchmark's generated multiround CVR at seed 1 and its roster."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    cvr, roster = tmp_path / "votes.jsonl", tmp_path / "roster.json"
    inputs.multiround_cvr(1, str(cvr), str(roster))
    return cvr, roster
