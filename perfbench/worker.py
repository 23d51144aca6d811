"""One benchmark round in a fresh process, as a command-line run would be.

    python3 perfbench/worker.py --workload NAME --seed N --src DIR --out-dir DIR [--trace]

Imports freedecay from ``--src``, builds the workload's inputs (set-up), runs
every operation once (the timed batch), checks the outputs and prints one
JSON object as the last line of standard output.  ``perfbench/run.py``
starts this script once per round.

A sampler thread times a fixed piece of ``Fraction`` arithmetic every
``SpeedSampler.PERIOD_S`` in its own CPU time, so that ``run.py`` can express
every timed interval at a fixed machine speed.
"""

import argparse
import json
import os
import resource
import sys
import threading
import time
import traceback
from fractions import Fraction


def _probe_work():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedSampler:
    """Background thread recording (perf_counter, probe CPU seconds) pairs.

    The probe is timed with the thread's CPU clock, so waiting for the
    interpreter lock does not count, while a core slowed down by other
    tenants makes it take longer.  Each sample costs the timed work about
    1 ms of interpreter time per period."""

    PERIOD_S = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            c0 = time.thread_time()
            _probe_work()
            self.samples.append((time.perf_counter(), time.thread_time() - c0))
            self._stop.wait(self.PERIOD_S)

    def start(self, warm_samples: int = 3):
        self._thread.start()
        while len(self.samples) < warm_samples:
            time.sleep(0.01)

    def stop(self):
        self._stop.set()
        self._thread.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True, help="directory holding the freedecay package")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # One core for the round: the sampler then times the core the work runs
    # on (the reference machine's cores change speed independently).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sampler = SpeedSampler()
    sampler.start()
    t_start = time.perf_counter()
    from workloads import WORKLOADS

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    t_import = time.perf_counter()
    import freedecay

    import_s = time.perf_counter() - t_import
    if not os.path.realpath(freedecay.__file__).startswith(src + os.sep):
        print(f"error: imported freedecay from {freedecay.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(freedecay)
        for name in tracer.unwrapped():
            print(f"warning: no {name} to trace; its metric reads 0", file=sys.stderr)
        tracer.start()

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    workload.build()
    ops = workload.operations()
    setup = (t_start, time.perf_counter())

    results, intervals, errors = [], [], {}
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            results.append(op())
        except Exception:  # one failing operation must not end the round
            errors[i] = traceback.format_exc(limit=3)
            results.append(None)
        intervals.append((t0, time.perf_counter()))
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.pause()
    failures = dict(errors)
    for i, result in enumerate(results):
        if i in errors:
            continue
        try:
            reason = workload.check(i, result)
        except Exception:
            reason = traceback.format_exc(limit=3)
        if reason is not None:
            failures[i] = reason
    for i, reason in sorted(failures.items()):
        print(f"failed operation {i}: {reason}", file=sys.stderr)
    problems = workload.global_problems()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "setup": setup,
        "intervals": intervals,
        "samples": sampler.samples,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "correct": not problems,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        tracer.dump(os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
        tracer.uninstall()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
