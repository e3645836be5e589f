#!/usr/bin/env python3
"""Steadiness check: run workloads N times and print each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workload stream-m1000 ...]
                                [--seconds S] [--first-seed 1] [--with-trace]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric this prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median, and
the metric's bound from BENCHMARK.json; a spread above a third of the bound
is flagged. With --with-trace every seed also gets a traced run, and the
tracing overhead (traced minus untraced, per metric) is printed. A summary is
written to .bench_build/perfbench/steady-<time>.json.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # run.py stops its JVM on SIGTERM; pass ours on.
    signal.signal(signal.SIGTERM, lambda *_: (p.terminate(), p.wait(), sys.exit(1)))
    out, err = p.communicate()
    wall = time.time() - t0
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(out + err)
        raise SystemExit("run failed: %s seed %d trace %d" % (workload, seed, trace))
    return json.loads(lines[-1]), wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--with-trace", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for w in workloads:
        values, traced, walls, bad = {}, {}, [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, wall = run_once(w, seed, args.seconds, 0)
            walls.append(wall)
            bad += 0 if res["correct"] else 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.with_trace:
                tres, _ = run_once(w, seed, args.seconds, 1)
                for name, m in tres["metrics"].items():
                    traced.setdefault(name, []).append(m["value"])
        print("%s: %d runs, %d incorrect, wall per run %.1f s (max %.1f s)"
              % (w, args.runs, bad, statistics.mean(walls), max(walls)))
        rows = {}
        for name, vs in values.items():
            med, q1, q3, sp = spread(vs)
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or sp <= bound / 3 else "  <-- above bound/3"
            print("  %-22s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f bound %s%s"
                  % (name, med, q1, q3, sp, bound, flag))
            rows[name] = {"values": vs, "median": med, "q1": q1, "q3": q3, "spread": sp, "bound": bound}
            if args.with_trace and ("e2e." + name) in traced:
                over = [t - u for t, u in zip(traced["e2e." + name], vs)]
                print("  %-22s tracing overhead (traced - untraced), median %.6g" % ("", statistics.median(over)))
                rows[name]["trace_overhead_median"] = statistics.median(over)
        summary[w] = {"runs": args.runs, "incorrect": bad, "wall_s": walls, "metrics": rows}
    out = os.path.join(ROOT, ".bench_build", "perfbench", "steady-%d.json" % int(time.time()))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=1)
    print("summary written to", os.path.relpath(out, ROOT))


if __name__ == "__main__":
    main()
