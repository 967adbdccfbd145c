#!/usr/bin/env python3
"""Collects benchmark runs over several seeds, summarises them, and compares
two collections.

    python3 perfbench/report.py collect OUT_DIR [--workloads a,b] [--seeds 1-10]
                                        [--seconds S] [--trace 0|1]
    python3 perfbench/report.py summary DIR
    python3 perfbench/report.py compare BASE_DIR NEW_DIR
    python3 perfbench/report.py selftest

`collect` runs perfbench/run.py once per (workload, seed) from the repository
root and keeps each run's stdout as OUT_DIR/<workload>-seed<N>-trace<T>.out.
`summary` prints, per workload and metric, the median, the quartiles as
Python's statistics.quantiles(values, n=4) gives them, and their distance as
a share of the median, against the metric's bound in BENCHMARK.json.
`compare` refuses collections whose stamps (build type, SIMD backend and
width, executor threads, nproc) differ, then reports each end-to-end
metric's median change against its bound.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMP_PREFIX = "perfbench-stamp "
COMPARABLE = ("build_type", "simd_backend", "simd_width", "threads", "nproc")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(directory):
    """{workload: [(stamp, result), ...]} for every .out file in directory;
    traced runs group under "<workload> (traced)"."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        with open(path) as f:
            lines = f.read().splitlines()
        stamps = [l[len(STAMP_PREFIX):] for l in lines if l.startswith(STAMP_PREFIX)]
        if not stamps or not lines:
            raise SystemExit("%s: not a benchmark run" % path)
        stamp = json.loads(stamps[-1])
        key = stamp["workload"] + (" (traced)" if stamp["trace"] else "")
        runs.setdefault(key, []).append((stamp, json.loads(lines[-1])))
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def collect(args):
    os.makedirs(args.out, exist_ok=True)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec()["workloads"]]
    seconds = args.seconds or spec()["run_seconds"]
    failed = 0
    for name in names:
        for seed in parse_seeds(args.seeds):
            out = os.path.join(args.out, "%s-seed%d-trace%d.out" % (name, seed, args.trace))
            with open(out, "w") as f:
                code = subprocess.call(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                    stdout=f, cwd=ROOT)
            with open(out) as f:
                last = (f.read().splitlines() or ["{}"])[-1]
            ok = code == 0 and json.loads(last).get("correct") is True
            failed += not ok
            print("%s seed %d: %s" % (name, seed, "ok" if ok else "FAILED (exit %d)" % code),
                  flush=True)
    return 1 if failed else 0


def summary(args):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    status = 0
    for workload, runs in sorted(load(args.dir).items()):
        bad = sum(1 for _, r in runs if not r["correct"])
        print("%s: %d runs, %d not correct" % (workload, len(runs), bad))
        status |= bool(bad)
        for name in sorted(runs[0][1]["metrics"]):
            values = [r["metrics"][name]["value"] for _, r in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            if len(values) < 2:
                print("  %-30s %14.6g %s" % (name, values[0], unit))
                continue
            q1, q2, q3, rel = spread(values)
            note = ""
            if name in bounds and name != "setup_s":
                note = "bound %.3g%s" % (bounds[name], "" if rel < bounds[name] / 3
                                          else "  SPREAD ABOVE A THIRD OF THE BOUND")
            print("  %-30s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%  %s %s" %
                  (name, q2, q1, q3, 100 * rel, unit, note))
    return status


def compare(args):
    base, new = load(args.base), load(args.new)
    stamps = {tuple(s[k] for k in COMPARABLE)
              for runs in (base, new) for v in runs.values() for s, _ in v}
    if len(stamps) != 1:
        print("refusing to compare: stamps differ: %s" % sorted(stamps), file=sys.stderr)
        return 2
    worse = 0
    for m in spec()["end_to_end"]:
        for workload in sorted(w for w in set(base) & set(new) if "(traced)" not in w):
            b = statistics.median(r["metrics"][m["name"]]["value"] for _, r in base[workload])
            n = statistics.median(r["metrics"][m["name"]]["value"] for _, r in new[workload])
            change = (n - b) / b if b else 0.0
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += regress
            print("%-15s %-12s base %-12.6g new %-12.6g %+7.2f%% (bound %.0f%%)%s" %
                  (workload, m["name"], b, n, 100 * change, 100 * m["bound"],
                   "  WORSE BEYOND BOUND" if regress else ""))
    return 1 if worse else 0


def selftest(_args):
    """Checks the spread arithmetic against hand-computed quartiles."""
    checks = [
        (spread(list(range(10, 0, -1))), (2.75, 5.5, 8.25, 5.5 / 5.5)),
        (spread([2.0, 1.0]), (0.75, 1.5, 2.25, 1.5 / 1.5)),
        (spread([4.0, 4.0, 4.0]), (4.0, 4.0, 4.0, 0.0)),
    ]
    bad = [got for got, want in checks
           if any(abs(g - w) > 1e-12 for g, w in zip(got, want))]
    print("selftest %s" % ("ok" if not bad else "FAILED: %s" % bad))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--seconds", type=float, default=0)
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("summary")
    s.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    sub.add_parser("selftest")
    args = parser.parse_args()
    return {"collect": collect, "summary": summary, "compare": compare,
            "selftest": selftest}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
