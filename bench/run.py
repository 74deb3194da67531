"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: poly-exact, cap-local, singular-sweep, grid-caps (bench/README.md
says why each exists and which layers it loads).

Every process this starts is a fresh interpreter with BLAS/OpenMP threads
at 1. Probe processes only set the workload up, to measure the set-up time,
two before and two after the worker process, which sets up again and runs
the tasks as a single client in a closed loop for S seconds. The worker
checks every answer against an independent reference.

The machine's speed drifts with the load of other tenants (on a shared
2-vCPU microVM, between two states about 1.8x apart, each lasting
seconds). So while the tasks run the worker samples the machine's
speed every 0.2 s by timing a fixed reference loop that never touches the
library, and every task latency is scaled to the speed at which that loop
takes REFERENCE_S: it is multiplied by REFERENCE_S over the mean of the
samples taken within 0.2 s of the task. The unscaled figures are printed too
(lines starting with "# raw") and kept in bench/out/. The set-up time is
not scaled.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
worker wraps the library's layer entry points at run time and the result
holds the per-layer metrics (per task) instead. The last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
result, with every task's latency, is also written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("poly-exact", "cap-local", "singular-sweep", "grid-caps")
SETUP_PROBES = 4        # plus the worker's own set-up: a median of five
# the tail percentile of each workload, fixed so a faster program is not
# measured at a higher percentile; poly-exact runs hundreds of tasks, the
# others too few for any percentile below the maximum to keep ten beyond it
TAIL_PCT = {"poly-exact": 90.0, "cap-local": 100.0, "singular-sweep": 100.0,
            "grid-caps": 100.0}
REFERENCE_S = 1e-3      # reference-loop time that defines the unit speed
SPEED_WINDOW_S = 0.2    # speed samples this close to a task describe it
DEADLINE_S = 170.0      # the whole run, worker included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "tasks_per_s": "1/s", "task_s.p50": "s",
                    "task_s.tail": "s", "err_digits": "digits",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args, extra, t_end):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(),
                            text=True)
    try:
        wait = max(1.0, t_end - time.perf_counter())
        if not select.select([proc.stdout], [], [], wait)[0]:
            raise BenchError("worker set-up ran past the deadline")
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError("worker set-up failed (exit %s)" % proc.wait(
                max(1.0, t_end - time.perf_counter())))
        return proc, setup
    except BaseException:
        _stop(proc)
        raise


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _finish(proc, t_end):
    try:
        rest, _ = proc.communicate(timeout=max(1.0, t_end - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline")
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d" % proc.returncode)
    return rest


def measure(args):
    t_end = time.perf_counter() + DEADLINE_S

    def probe():
        proc, setup = _start(args, ["--probe"], t_end)
        _finish(proc, t_end)
        return setup

    # half the probes before the worker and half after, so the set-up
    # samples span the run's changes of machine speed
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = ["--spans", os.path.join(OUT_DIR, tag + "-spans.npz")] \
        if args.trace else []
    proc, setup = _start(args, spans, t_end)
    setups.append(setup)
    lines = _finish(proc, t_end).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    raw = json.loads(lines[-1])
    raw["setup_s"] = setups
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(raw, fh)
    return raw


def task_speed(task_spans, samples):
    """Mean reference time of the speed samples taken during each task or
    within SPEED_WINDOW_S of it (the nearest sample if there is none)."""
    t = np.array([s[0] for s in samples])
    ref = np.array([s[1] for s in samples])
    out = []
    for t0, t1 in task_spans:
        near = (t >= t0 - SPEED_WINDOW_S) & (t <= t1 + SPEED_WINDOW_S)
        out.append(ref[near].mean() if near.any()
                   else ref[np.argmin(np.abs(t - 0.5 * (t0 + t1)))])
    return np.array(out)


def summarise(workload, trace, raw):
    raw_lat = np.array(raw["latency"])
    speed = task_speed(raw["task_spans"], raw["speed"])
    lat = raw_lat * REFERENCE_S / speed
    ok = np.array(raw["correct"], dtype=bool)
    n = len(lat)
    failed = int(n - ok.sum())
    info = {"tasks": n, "fail_frac": failed / n,
            "reference_ms.median": 1e3 * float(np.median(speed))}
    if trace:
        metrics = dict(raw["layers"])
        metrics["trace.tasks_per_s"] = ok.sum() / lat.sum()
        metrics["fail_frac"] = failed / n
        from tracer import LAYER_METRICS
        units = dict(LAYER_METRICS)
    else:
        pct = TAIL_PCT[workload]
        digits = [d for d in raw["digits"] if d is not None]
        if not digits:
            raise BenchError("no task produced a numeric accuracy figure")
        metrics = {
            "setup_s": statistics.median(raw["setup_s"]),
            "tasks_per_s": ok.sum() / lat.sum(),
            "task_s.p50": float(np.median(lat)),
            "task_s.tail": float(np.percentile(lat, pct)),
            "err_digits": min(digits),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        info.update({
            "tail_pct": pct,
            "tasks_beyond_tail": int((lat > metrics["task_s.tail"]).sum()),
            "raw tasks_per_s": ok.sum() / raw_lat.sum(),
            "raw task_s.p50": float(np.median(raw_lat)),
            "raw task_s.tail": float(np.percentile(raw_lat, pct))})
    out = {k: {"value": float(v), "unit": units[k]}
           for k, v in metrics.items()}
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": out}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    try:
        raw = measure(args)
        result, info = summarise(args.workload, args.trace, raw)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write("bench: %s: %s\n" % (type(exc).__name__, exc))
        return 1
    for k, v in info.items():
        print("# %s %s" % (k, v))
    for k, m in result["metrics"].items():
        print("%-42s %.6g %s" % (k, m["value"], m["unit"]))
    for i, why in raw["errors"]:
        print("# task %d failed: %s" % (i, why))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
