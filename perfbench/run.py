"""freedecay benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a freedecay checkout; the package is imported from its
``src/`` directory.  A run is a fixed number of rounds, ``--seconds`` over the
nominal round time ``ROUND_S`` and at least three (fewer only when the
machine runs much slower than nominal).
Each round is a fresh process (``perfbench/worker.py``) that imports
freedecay, builds the seeded inputs and runs the same batch of operations
once, as a command-line run would.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
of ``perfbench/tracer.py``.  ``--workload all`` runs every workload in turn
and prefixes each metric with the workload's name.

Times are given at a fixed machine speed.  The reference machine runs the
same code up to 1.8x slower for seconds to tens of seconds at a time (other
tenants of its cores), far beyond any bound a comparison could use.  So a
sampler thread in each round times a fixed probe every 0.1 s, and every
stretch of a timed interval is scaled by ``PROBE_UNIT_S`` over the latest
probe timing: a time reads in seconds of a machine on which the probe takes
exactly ``PROBE_UNIT_S``.  Per operation, the median over the rounds is
taken; ``wall_s`` is the sum of these, the percentiles are taken over them
(Harrell-Davis), and ``setup_s`` and ``peak_rss_mb`` are medians over the
rounds.  Per-layer times are scaled by the round's median probe.  The raw
per-round records are kept in ``perfbench/out/`` (see README.md).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import METRICS, UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
ROUND_S = 5.0  # nominal length of a round of any workload on the reference machine
PROBE_UNIT_S = 1.0e-3
SLOW_FACTOR = 1.6
RUN_LIMIT_S = 150.0
# A round runs on one core (see worker.py), so BLAS gets one thread too.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("FREEDECAY_CACHE_DIR", None)  # the disk cache would turn reads into hits
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src
    return env


def run_round(workload: str, seed: int, trace: bool, src: str, out_dir: str,
              timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--src", src, "--out-dir", out_dir]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=_worker_env(src), capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} round exited with {proc.returncode}")
    return json.loads(lines[-1])


def round_count(seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds / ROUND_S + 0.5))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, src: str,
                 out_dir: str) -> list[dict]:
    """The run's rounds.  Past ``MIN_ROUNDS``, a round is skipped when the
    machine is so slow that it would end the run after ``SLOW_FACTOR *
    seconds``; no round starts that could end after ``RUN_LIMIT_S``."""
    rounds = []
    start = time.monotonic()
    for _ in range(round_count(seconds)):
        elapsed = time.monotonic() - start
        expected_end = elapsed + (elapsed / len(rounds) if rounds else 0.0)
        if expected_end > RUN_LIMIT_S or (
                len(rounds) >= MIN_ROUNDS and expected_end > SLOW_FACTOR * seconds):
            break
        rounds.append(run_round(workload, seed, trace, src, out_dir,
                                timeout=RUN_LIMIT_S - elapsed))
    return rounds


def _quantiles(values):
    """Median and 90th percentile by the Harrell-Davis estimator, a weighted
    mean of all order statistics.  The per-operation times of a workload
    mix input sizes, so the single order statistic at a rank moves a lot
    with the seed; the weighted mean moves far less."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    ranks = [i / n for i in range(n + 1)]
    out = []
    for p in (0.5, 0.9):
        cdf = betainc(p * (n + 1), (1 - p) * (n + 1), ranks)
        out.append(math.fsum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], ordered)))
    return out


def _at_unit_speed(interval, samples) -> float:
    """Length of ``interval`` at unit machine speed: each stretch of it is
    scaled by ``PROBE_UNIT_S`` over the latest probe timing before it."""
    start, end = interval
    times = [t for t, _ in samples]
    k = max(bisect.bisect_right(times, start) - 1, 0)
    total, t = 0.0, start
    while t < end:
        until = min(end, times[k + 1]) if k + 1 < len(times) else end
        total += (until - t) * PROBE_UNIT_S / samples[k][1]
        t, k = until, k + 1
    return total


def end_to_end(rounds: list[dict]) -> dict:
    per_round = [[_at_unit_speed(iv, r["samples"]) for iv in r["intervals"]] for r in rounds]
    per_op = [statistics.median(times) for times in zip(*per_round)]
    p50, p90 = _quantiles([1e3 * t for t in per_op])
    setup = [_at_unit_speed(r["setup"], r["samples"]) for r in rounds]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_s": {"value": math.fsum(per_op), "unit": "s"},
        "item_p50_ms": {"value": p50, "unit": "ms"},
        "item_p90_ms": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }


def per_layer(rounds: list[dict]) -> dict:
    out = {}
    for name, (kind, _) in METRICS.items():
        values = []
        for r in rounds:
            value = r["layers"][name]
            if UNITS[kind] == "s":
                value *= PROBE_UNIT_S / statistics.median(p for _, p in r["samples"])
            values.append(value)
        out[name] = {"value": statistics.median(values), "unit": UNITS[kind]}
    return out


def summarize(rounds: list[dict], trace: bool) -> dict:
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": per_layer(rounds) if trace else end_to_end(rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="freedecay benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "freedecay", "__init__.py")):
        print(f"error: no freedecay package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            rounds = run_workload(name, args.seed, args.seconds, bool(args.trace), src, out_dir)
            results[name] = summarize(rounds, bool(args.trace))
            mode = "trace" if args.trace else "e2e"
            with open(os.path.join(out_dir, f"rounds-{mode}-{name}-seed{args.seed}.json"),
                      "w") as fh:
                json.dump(rounds, fh)
            if args.trace:
                wall = end_to_end(rounds)["wall_s"]["value"]
                print(f"# {name}: {len(rounds)} traced rounds, traced wall_s={wall!r}")
            else:
                print(f"# {name}: {len(rounds)} rounds")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
