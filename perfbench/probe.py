"""Run `python -m liftgirth.cli ARGS` with a speed probe.

    python3 perfbench/probe.py OUT ARGS...

Every PROBE_EVERY_S seconds of wall time a SIGALRM handler runs a short
fixed loop (the one run.calibrate times, PROBE_ITERATIONS long) and
records how long it took.  When the CLI exits, the probe times are
written to OUT, one per line, so the caller can tell the machine speed
during the invocation and subtract the probes' own time.  Pool workers
inherit the handler but not the timer, so they are never probed.
"""

import runpy
import signal
import sys
import time

PROBE_EVERY_S = 0.05
PROBE_ITERATIONS = 30_000


def spin(iterations):
    """Seconds a fixed pure-Python loop of `iterations` steps takes."""
    start = time.perf_counter()
    s = 0
    for i in range(iterations):
        s += i * i % 7
    return time.perf_counter() - start


def main():
    out, args = sys.argv[1], sys.argv[2:]
    samples = []
    signal.signal(signal.SIGALRM,
                  lambda *_: samples.append(spin(PROBE_ITERATIONS)))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    sys.argv = ["liftgirth.cli", *args]
    try:
        runpy.run_module("liftgirth.cli", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(f"{s!r}\n" for s in samples)


if __name__ == "__main__":
    main()
