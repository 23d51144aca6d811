"""Steadiness check for the benchmark: repeated runs and two-set comparison.

    python3 perfbench/steady.py run [--runs 10] [--seed0 1] [--workloads a,b]
                                    [--trace] [--save FILE]
    python3 perfbench/steady.py compare FIRST SECOND

``run`` calls ``perfbench/run.py`` once per seed and workload, seeds
``seed0 .. seed0+runs-1``, with the run length of ``BENCHMARK.json`` and the
workload order reversed on every other repetition.  It prints, per workload
and metric, the median, the quartiles (``statistics.quantiles(n=4)``) and
their distance as a share of the median, next to the metric's bound; a
spread above a third of the bound is marked ``wide`` and one above the
bound ``FAIL`` (``setup_s`` is exempt from the spread rule).  With
``--trace`` it makes traced runs instead, prints the per-layer medians and
gives the tracing overhead against the untraced runs of the file named by
``--untraced``.  ``compare`` checks that
every end-to-end median of SECOND lies within the bound of FIRST and that
the share of failed operations is the same; for two traced sets it checks
that every count repeats exactly for the same seed.  Run it from the root of a
checkout; results are saved under ``perfbench/out/`` by default.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def _spec():
    with open(BENCHMARK) as fh:
        return json.load(fh)


def _one_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"run.py {workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["run_s"] = time.monotonic() - t0
    for line in lines[:-1]:
        if "traced wall_s=" in line:
            result["traced_wall_s"] = float(line.rsplit("=", 1)[1])
    return result


def cmd_run(args) -> int:
    spec = _spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for rep in range(args.runs):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            result = _one_run(w, args.seed0 + rep, spec["run_seconds"], args.trace)
            runs[w].append(result)
            print(f"{w} seed={args.seed0 + rep} run_s={result['run_s']:.1f} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}", flush=True)
    data = {"trace": args.trace, "runs": runs}
    save = args.save or os.path.join(
        HERE, "out", f"steady-{'trace' if args.trace else 'e2e'}-{int(time.time())}.json")
    os.makedirs(os.path.dirname(os.path.abspath(save)), exist_ok=True)
    with open(save, "w") as fh:
        json.dump(data, fh, indent=1)
    print(f"saved {save}")
    return _show(data, spec, args.untraced)


def _show(data, spec, untraced_path=None) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    for workload, results in data["runs"].items():
        print(f"\n== {workload}: {len(results)} runs, "
              f"attempted/run {statistics.median(r['attempted'] for r in results)}, "
              f"failed shares {sorted({r['failed'] / r['attempted'] for r in results})}, "
              f"correct {all(r['correct'] for r in results)}")
        names = list(results[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) < 2:
                print(f"  {name:28s} {values[0]:14.6g} {unit}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:28s} median {med:14.6g} {unit:5s} q1 {q1:12.6g} q3 {q3:12.6g} "
                    f"spread {spread:7.2%}")
            if name in bounds:
                bound = bounds[name]["bound"]
                status = "ok"
                if name != "setup_s" and spread > bound:
                    status, bad = "FAIL", bad + 1
                elif name != "setup_s" and spread > bound / 3:
                    status = "wide"
                line += f" bound {bound:.2f} {status}"
            print(line)
        if data["trace"] and untraced_path:
            with open(untraced_path) as fh:
                untraced = json.load(fh)["runs"].get(workload)
            if untraced:
                traced = statistics.median(r["traced_wall_s"] for r in results)
                plain = statistics.median(r["metrics"]["wall_s"]["value"] for r in untraced)
                print(f"  tracing overhead: traced wall_s {traced:.3f} s against untraced "
                      f"{plain:.3f} s ({traced / plain - 1:+.1%})")
    return 1 if bad else 0


def _compare_counts(first, second) -> int:
    """Traced sets: every count must repeat exactly for the same seed."""
    bad = 0
    for workload, runs in first.items():
        other = {r["seed"]: r for r in second.get(workload, [])}
        for r in runs:
            if r["seed"] not in other:
                continue
            diff = [name for name, m in r["metrics"].items() if m["unit"] == "count"
                    and m["value"] != other[r["seed"]]["metrics"][name]["value"]]
            bad += bool(diff)
            print(f"{workload:12s} seed {r['seed']}: "
                  f"{'counts differ: ' + ', '.join(diff) if diff else 'counts identical'}")
    return 1 if bad else 0


def cmd_compare(args) -> int:
    spec = _spec()
    with open(args.first) as fh:
        first_set = json.load(fh)
    with open(args.second) as fh:
        second_set = json.load(fh)
    first, second = first_set["runs"], second_set["runs"]
    if first_set["trace"] and second_set["trace"]:
        return _compare_counts(first, second)
    bad = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for workload in first:
            if workload not in second:
                continue
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            change = (b - a) / a
            worse = sign * change > bound
            wide = abs(change) >= bound
            bad += worse or wide
            print(f"{workload:12s} {name:14s} first {a:12.6g} second {b:12.6g} "
                  f"change {change:+7.2%} bound {bound:.2f} "
                  f"{'FAIL' if worse or wide else 'ok'}")
    for workload in first:
        if workload in second:
            fa = {r["failed"] / r["attempted"] for r in first[workload]}
            fb = {r["failed"] / r["attempted"] for r in second[workload]}
            same = fa == fb and len(fa) == 1
            bad += not same
            print(f"{workload:12s} failed share first {sorted(fa)} second {sorted(fb)} "
                  f"{'ok' if same else 'FAIL'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness check for perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="repeated runs over seeds")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workloads", default=None, help="comma-separated subset")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--untraced", default=None, help="saved untraced set, for the overhead")
    p.add_argument("--save", default=None)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="check a second set against the first")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
