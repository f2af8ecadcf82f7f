"""Timed passes of one workload, in a process of its own so that its peak
memory is its own.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the source directory, the argv of each CLI command of one pass,
the files each command's output goes to (its standard output first), the
seconds to measure and whether to trace.
A pass runs every command through ``rcv_forensics.cli.main`` in order.
Each pass records its wall time and the CPU time (user plus system) this
process spent in it; untraced passes run under the speed probe of
``probe.py``, which also gives their CPU time scaled to a reference speed.
Untraced, every pass is timed as is. Traced, passes alternate untraced and
traced, so the difference between the two medians is the tracing overhead.
Outputs are hashed after each pass, outside its timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started.

    Linux carries a parent's resident size at fork into the child's
    ``ru_maxrss`` across exec, so the kernel's high-water mark of this
    process's own address space is read instead where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str, result_path: str) -> None:
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    sys.path.insert(0, spec["src"])
    import rcv_forensics.cli as cli
    from probe import SpeedProbe

    probe = SpeedProbe()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    min_passes = 4 if tracer else 3
    passes = []
    deadline = time.perf_counter() + spec["seconds"]
    while len(passes) < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        for files in spec["artifacts"]:
            for path in files:
                if os.path.exists(path):
                    os.remove(path)
        codes, stdout = [], []
        if traced:
            tracer.reset()
            tracer.install()
        else:
            probe.start()
        start, cpu_start = time.perf_counter(), time.process_time()
        for op, argv in enumerate(spec["commands"]):
            if traced:
                tracer.op = op
            sink, errors = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
                codes.append(cli.main(argv))
            stdout.append(sink.getvalue())
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        record = {"wall": wall, "cpu": cpu, "traced": traced, "codes": codes, "digests": []}
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.metrics()
        else:
            probe.stop()
            record.update(probe.scaled(cpu))
        for out, files in zip(stdout, spec["artifacts"]):
            # the first file of each command receives its standard output
            with open(files[0], "w", encoding="utf-8") as sink:
                sink.write(out)
            digests = []
            for path in files:
                if not os.path.exists(path):
                    digests.append(None)
                    continue
                with open(path, "rb") as stream:
                    digests.append(hashlib.sha256(stream.read()).hexdigest())
            record["digests"].append(digests)
        passes.append(record)
    if tracer is not None:
        with open(spec["spans"], "w", encoding="utf-8") as sink:
            for span in tracer.spans:
                sink.write(json.dumps(span) + "\n")
    result = {"passes": passes, "peak_rss_mb": peak_rss_mb()}
    with open(result_path, "w", encoding="utf-8") as sink:
        json.dump(result, sink)


if __name__ == "__main__":
    main(*sys.argv[1:])
