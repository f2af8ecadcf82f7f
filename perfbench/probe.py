"""Speed probe: CPU time scaled to a reference speed of the core.

On a shared host the same pass can take twice the CPU time from one minute to
the next, because other tenants share the physical core (hyperthreads, caches,
turbo budget). That slows pure-Python code of every kind, though not all kinds
alike. So while a pass runs, a SIGPROF handler times one of three fixed
pure-Python loops (dict updates, a small instant-runoff count from
``reference.py``, building and sorting small objects) every PROBE_EVERY_S of
this process's CPU time, in turn, and the pass's own CPU time is scaled by
PROBE_REF_S / (geometric mean of the three loops' median times): the CPU
seconds the pass would take on a core where that mean is PROBE_REF_S. The
loops' own time is taken out of the pass's CPU time first. None of the loops
runs code of rcv_forensics, so a change to the program does not move them.
Raw CPU and wall times are reported beside the scaled ones.

Usage: python3 perfbench/probe.py SRC
    A fresh interpreter imports rcv_forensics from SRC and builds the CLI
    parser under the probe, and prints one JSON object: the CPU time of the
    whole process so far, raw and scaled, and the probe count.
"""

from __future__ import annotations

import json
import math
import random
import signal
import statistics
import sys
import time

from reference import irv

PROBE_EVERY_S = 0.01
# roughly the loops' mean time on a quiet core of the 2-vCPU 2.0 GHz Xeon VM
# with CPython 3.11 that the bounds were set on; it fixes only the unit of
# the scaled times, not their ratios
PROBE_REF_S = 0.0002

_rng = random.Random(0)
_CANDIDATES = "ABCDEFG"
_ENTRIES = [(tuple(_rng.sample(_CANDIDATES, _rng.randint(1, 7))), _rng.randint(1, 5)) for _ in range(40)]


def _dict_loop() -> None:
    counts: dict = {}
    for i in range(1000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1


def _tally_loop() -> None:
    irv(_ENTRIES, _CANDIDATES, ())


def _object_loop() -> None:
    for i in range(100):
        sorted({(i % 7, j): [j] for j in range(5)}.items())


LOOPS = (_dict_loop, _tally_loop, _object_loop)


class SpeedProbe:
    """Times one of the LOOPS, in turn, every PROBE_EVERY_S of process CPU
    time while started."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = [[] for _ in LOOPS]
        self.count = 0

    def _sample(self, signum, frame) -> None:
        kind = self.count % len(LOOPS)
        self.count += 1
        start = time.perf_counter()
        LOOPS[kind]()
        self.samples[kind].append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = [[] for _ in LOOPS]
        self.count = 0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, cpu: float) -> dict:
        """The CPU time ``cpu`` of the probed stretch, raw and scaled; the
        probes' own time is taken out of both."""
        own = cpu - sum(map(sum, self.samples))
        if all(self.samples):
            speed = math.exp(statistics.mean(math.log(statistics.median(s)) for s in self.samples))
        else:  # too short a stretch to time every loop: left unscaled
            speed = PROBE_REF_S
        return {"cpu": own, "scaled": own * PROBE_REF_S / speed, "probes": self.count}


def main(src: str) -> None:
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, src)
    import rcv_forensics.cli as cli

    cli.build_parser()
    probe.stop()
    print(json.dumps(probe.scaled(time.process_time())))


if __name__ == "__main__":
    main(*sys.argv[1:])
