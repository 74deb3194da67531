"""One benchmark process: set up one workload, then run its tasks.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--probe] [--spans PATH]

``run.py`` starts it in a fresh interpreter. It prints ``ready`` once the
workload's set-up is done; with ``--probe`` it stops there. Otherwise it acts
as one client in a closed loop: it draws task i from the seed, times the
library calls of the task, checks the answers outside the timed part, and
starts the next task until ``--seconds`` of wall time have passed. The last
line it prints is a JSON object with the raw per-task results.

While the tasks run, a timer signal samples the machine's speed every
SAMPLE_S seconds by timing a fixed reference loop that never touches the
library (the time spent sampling is taken out of the task latencies).
``run.py`` uses the samples taken during each task to scale its latency to
a fixed machine speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

SAMPLE_S = 0.2


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _reference_once():
    acc = 0.0
    cells = []
    for i in range(1500):
        c = _Cell(i * 0.5, i * 0.25)
        acc += c.a * c.b - acc * 1e-9
        cells.append(c)
    x = np.arange(64.0)
    for _ in range(70):
        x = x * 1.0000001 + 1.0
    return acc + x[0]


def reference_s() -> float:
    """The machine's current speed: the fastest of three timings of a fixed
    object-allocating loop with small numpy operations, the same mix of work
    as the library's, about 1 ms each."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_once()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Times the reference loop from a SIGALRM handler every SAMPLE_S s."""

    def __init__(self):
        self.samples = []      # (perf_counter time, reference seconds)
        self.spent = 0.0       # seconds spent inside the handler
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, reference_s()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._handler(None, None)
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._handler(None, None)
        return False


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="stop after the set-up")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from workloads import WORKLOADS
    work = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    state = work.setup()
    print("ready", flush=True)
    if args.probe:
        return 0

    if tracer:
        tracer.reset_counts()
    latency, spans, correct, digits, errors = [], [], [], [], []
    reference_s()    # warm-up
    deadline = time.perf_counter() + args.seconds
    i = 0
    with SpeedSampler() as speed:
        while i == 0 or time.perf_counter() < deadline:
            inp = work.make_input(np.random.default_rng([args.seed, i]), i)
            if tracer:
                tracer.task_id = i
            spent = speed.spent
            t0 = time.perf_counter()
            try:
                out = work.run(state, inp)
                failure = None
            except Exception as exc:  # a raising task is a failed task
                out, failure = None, "%s: %s" % (type(exc).__name__, exc)
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            latency.append(t1 - t0 - (speed.spent - spent))
            spans.append((t0, t1))
            if tracer:
                tracer.task_id = -1
            ok, dig = False, None
            if failure is None:
                try:
                    ok, dig = work.check(inp, out)
                except Exception as exc:  # a check that cannot read the answer
                    failure = "check %s: %s" % (type(exc).__name__, exc)
                    traceback.print_exc(file=sys.stderr)
            if failure is None and not ok:
                failure = "wrong answer"
            correct.append(bool(ok))
            digits.append(dig)
            if failure:
                errors.append([i, failure])
            i += 1

    result = dict(latency=latency, task_spans=spans, speed=speed.samples,
                  correct=correct, digits=digits, errors=errors,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(i, tracer.quaternions())
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
