#!/usr/bin/env python3
"""CI gate over bench_yield output (BENCH_yield.json).

Reads the report written by

    bench_yield          # -> BENCH_yield.json

and fails (exit 1) unless the yield engine's headline acceptance criteria
hold at the gate point (Vreg = 0.40 V on the 4Kx64 array):

  * the tail is genuinely rare-event: a naive brute-force Monte Carlo
    would need >= MIN_BF_SOLVES exact DRV solves to pin it to the
    importance sampler's reported relative CI;
  * the importance sampler spent <= 1/MIN_SOLVE_ADVANTAGE of that
    exact-solve budget;
  * the two estimates are statistically indistinguishable:
    |p_is - p_ref| <= sqrt(ci_is^2 + ci_ref^2) (the bench computes this as
    `ci_overlap`; it is re-derived here from the recorded numbers);
  * the estimator is healthy: p > 0, effective sample size >= MIN_ESS and
    relative CI <= MAX_REL_CI (an ESS collapse — the classic failure mode
    of an over-aggressive shift — trips these long before the means drift);
  * candidate exact-solve batching pays: the report must carry the
    `candidate_exact` section (its absence means the bench binary predates
    the lane-batched path — hard fail, not a skip), both densities must have
    produced bit-identical curves under the two batch kinds, the lane batch
    must be >= MIN_LANE_SPEEDUP_HEAVY x faster than the one-at-a-time loop
    at heavy candidate density, and >= MIN_LANE_SPEEDUP_SPARSE x (i.e. not a
    regression beyond noise) at sparse density;
  * the importance curve is cut into >= MIN_IS_TASKS executor tasks. Its
    samples mostly take exact solves, so a plan sized for blockade sampling
    (two 16384-sample blocks) leaves all but two cores idle. The `tasks`
    key's absence is a hard fail, as with `candidate_exact`. Task counts are
    deterministic, so this gate needs no timing.

Build hygiene: the report must carry the `lpsram_build_type` context stamp
and it must say "release" — numbers from a debug build are refused, not
gated (same contract as tools/check_bench_solver.py).

Usage: check_bench_yield.py [BENCH_yield.json]
"""
import json
import math
import sys

# The tail must be rare enough that brute force is out of reach (the issue's
# acceptance line is 10^7; the measured point sits at ~2.4e8).
MIN_BF_SOLVES = 1e7
# The importance sampler must beat brute force by at least this factor in
# exact solves (acceptance line 20x; measured headroom is ~10^4 x).
MIN_SOLVE_ADVANTAGE = 20.0
# Estimator health floors: measured ESS ~2190 of 20000 samples, rel CI ~0.09.
MIN_ESS = 100.0
MAX_REL_CI = 0.5
# Candidate exact-solve batching: the lane batch must clearly win where exact
# solves dominate, and must not regress where they are rare (0.95 leaves room
# for wall-clock noise on a path whose runtime is surrogate-bound).
MIN_LANE_SPEEDUP_HEAVY = 2.0
MIN_LANE_SPEEDUP_SPARSE = 0.95
# Importance-curve decomposition: 20k samples in 512-sample blocks are 40
# tasks; the blockade-sized plan it replaced was 2.
MIN_IS_TASKS = 8


def check_build_type(context):
    build = context.get("lpsram_build_type")
    if build is None:
        print("FAIL: report lacks the 'lpsram_build_type' context — it was "
              "recorded by a bench binary predating the build-type stamp; "
              "re-record from a current Release build", file=sys.stderr)
        return False
    if build != "release":
        print(f"FAIL: bench binary was built '{build}', not 'release' — "
              "refusing to gate on debug-build statistics", file=sys.stderr)
        return False
    return True


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_yield.json"
    with open(path) as f:
        report = json.load(f)

    if not check_build_type(report.get("context", {})):
        return 1

    ref = report["reference"]
    imp = report["importance"]
    bf_needed = float(report["bf_solves_needed"])

    print(f"gate point vreg {report['gate_vreg']:.2f} V on "
          f"{report['rows']}x{report['cols']}:")
    print(f"  reference  p {ref['p']:.3e} +/- {ref['ci95']:.3e} "
          f"({ref['exact_solves']} exact solves, {ref['samples']} samples)")
    print(f"  importance p {imp['p']:.3e} +/- {imp['ci95']:.3e} "
          f"({imp['exact_solves']} exact solves, ess {imp['ess']:.0f}, "
          f"rel CI {imp['rel_ci']:.3f})")
    print(f"  brute-force budget for that precision: {bf_needed:.3e} solves")

    failed = False

    if bf_needed < MIN_BF_SOLVES:
        print(f"FAIL: gate point is not rare-event enough — brute force "
              f"needs only {bf_needed:.3e} solves (floor {MIN_BF_SOLVES:.0e})",
              file=sys.stderr)
        failed = True
    else:
        print(f"OK: brute force needs {bf_needed:.3e} >= {MIN_BF_SOLVES:.0e} "
              "exact solves")

    budget = bf_needed / MIN_SOLVE_ADVANTAGE
    if float(imp["exact_solves"]) > budget:
        print(f"FAIL: importance sampler spent {imp['exact_solves']} exact "
              f"solves, over 1/{MIN_SOLVE_ADVANTAGE:.0f} of brute force "
              f"({budget:.3e})", file=sys.stderr)
        failed = True
    else:
        advantage = bf_needed / max(float(imp["exact_solves"]), 1.0)
        print(f"OK: importance sampler is {advantage:.0f}x cheaper than "
              "brute force in exact solves")

    combined_ci = math.sqrt(float(ref["ci95"]) ** 2 + float(imp["ci95"]) ** 2)
    delta = abs(float(imp["p"]) - float(ref["p"]))
    if delta > combined_ci:
        print(f"FAIL: estimates disagree — |p_is - p_ref| = {delta:.3e} "
              f"exceeds the combined 95% CI {combined_ci:.3e}",
              file=sys.stderr)
        failed = True
    else:
        print(f"OK: estimates agree within the combined 95% CI "
              f"({delta:.3e} <= {combined_ci:.3e})")
    if not report.get("ci_overlap", False) and delta <= combined_ci:
        print("warning: bench recorded ci_overlap=false but the recorded "
              "numbers overlap — bench/check drift?", file=sys.stderr)

    for label, est in (("reference", ref), ("importance", imp)):
        if float(est["p"]) <= 0.0:
            print(f"FAIL: {label} estimate is non-positive ({est['p']}) — "
                  "no failures observed at the gate point", file=sys.stderr)
            failed = True
    if float(imp["ess"]) < MIN_ESS:
        print(f"FAIL: importance-sampling ESS collapsed to {imp['ess']:.0f} "
              f"(floor {MIN_ESS:.0f}) — weight degeneracy", file=sys.stderr)
        failed = True
    if float(imp["rel_ci"]) > MAX_REL_CI:
        print(f"FAIL: importance-sampling relative CI {imp['rel_ci']:.3f} "
              f"exceeds {MAX_REL_CI:.2f} — estimator too noisy to gate on",
              file=sys.stderr)
        failed = True
    if not failed:
        print("OK: estimator health (p > 0, ESS, relative CI) within bounds")

    if "tasks" not in imp:
        print("FAIL: importance section lacks 'tasks' — it was recorded by a "
              "bench binary predating the work-sized decomposition; "
              "re-record from a current build", file=sys.stderr)
        return 1
    tasks = int(imp["tasks"])
    if tasks < MIN_IS_TASKS:
        print(f"FAIL: importance curve ran as {tasks} task(s), fewer than "
              f"{MIN_IS_TASKS} — its exact-solve-heavy blocks cannot spread "
              "over the executor", file=sys.stderr)
        failed = True
    else:
        print(f"OK: importance curve ran as {tasks} >= {MIN_IS_TASKS} tasks "
              f"(reference: {ref.get('tasks', '?')})")

    ce = report.get("candidate_exact")
    if ce is None:
        print("FAIL: report lacks the 'candidate_exact' section — it was "
              "recorded by a bench binary predating the lane-batched "
              "candidate path; re-record from a current build",
              file=sys.stderr)
        return 1
    floors = {"sparse": MIN_LANE_SPEEDUP_SPARSE, "heavy": MIN_LANE_SPEEDUP_HEAVY}
    for density, floor in floors.items():
        if density not in ce:
            print(f"FAIL: candidate_exact section lacks the '{density}' "
                  "density", file=sys.stderr)
            failed = True
            continue
        d = ce[density]
        speedup = float(d["speedup"])
        print(f"candidate exact ({density}, margin "
              f"{d['blockade_margin']:.2f} V): {d['exact_solves']} exact "
              f"solves, one-at-a-time {d['one_at_a_time_wall_s']:.3f} s, "
              f"lane-batch {d['lane_batch_wall_s']:.3f} s -> {speedup:.2f}x")
        if not d.get("curves_identical", False):
            print(f"FAIL: {density}-density curves diverged between batch "
                  "kinds — the speedup is not comparing equal work",
                  file=sys.stderr)
            failed = True
        if speedup < floor:
            print(f"FAIL: lane-batch speedup {speedup:.2f}x at {density} "
                  f"density is below the {floor:.2f}x floor", file=sys.stderr)
            failed = True
        else:
            print(f"OK: lane batch is {speedup:.2f}x >= {floor:.2f}x at "
                  f"{density} density")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
