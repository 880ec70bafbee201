#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the repo's bench binaries and compares their emitted metrics against
the committed baseline (bench/BASELINE.json):

  * Simulated metrics (the `{"bench":...}` JSON lines with sim-domain
    units) are products of the deterministic simulator: they must match
    the baseline BIT-EXACTLY. Any drift means a behavior change, not a
    perf change, and fails the check.
  * Wall-clock metrics ("seconds", "events_per_sec" lines and
    google-benchmark bytes/items-per-second counters) are jitter-prone,
    especially on shared CI runners, so they get a generous tolerance:
    throughputs may not drop below baseline/TOL, runtimes may not exceed
    baseline*TOL (default TOL=3).

A third mode, --self-check, proves the determinism contract without
consulting the baseline at all: every sim bench binary is run twice and
the simulated metric lines of the two runs are diffed byte-for-byte.
A bench that disagrees with itself has nondeterminism the simulator is
supposed to have squeezed out (unordered iteration feeding metrics,
wall-clock leakage, uninitialized state), and no baseline can be trusted
until it is fixed.

A fourth mode, --perturb, is simrace's schedule-perturbation oracle: every
sim bench is rerun under perturbed tie-break policies
(DPDPU_SIM_TIEBREAK=lifo and shuffle:7) and the simulated metric lines are
diffed against the default FIFO run. The tie-break only reorders events
sharing a timestamp — orderings the model claims to be insensitive to — so
any metric drift is a latent schedule dependence even when the run-twice
self-check passes. Benches with a *known, reasoned* tie-order sensitivity
are listed in PERTURB_SKIPS; a skip whose bench stops diverging is itself
an error (stale waiver), mirroring the simlint allowlist policy.

--perturb-selftest proves the oracle end to end: the intentionally
order-dependent build/tests/simrace_oracle binary must diverge between
fifo and lifo AND report the underlying race on stderr.

A fifth mode, --explore, goes beyond the three sampled schedules: it
drives the simex model checker (build/tools/simex/simex) over its
scenario targets, which enumerate same-timestamp orderings (DPOR-pruned
via simrace's causal DAG) and fault-injection choice points (node
fail/recover timing, frame-drop placement). Clean targets must explore
clean; the seeded pagecache-race target must FAIL, proving the explorer
still finds real bugs. Reports schedules explored vs the naive
enumeration pruned away. --explore-budget-scale N deepens the walk for
the nightly run.

Usage:
  python3 scripts/check_bench.py --build-dir build              # check
  python3 scripts/check_bench.py --build-dir build --update     # re-baseline
  python3 scripts/check_bench.py --build-dir build --self-check # run-twice
  python3 scripts/check_bench.py --build-dir build --perturb    # tie-break
  python3 scripts/check_bench.py --build-dir build --perturb-selftest
  python3 scripts/check_bench.py --build-dir build --explore    # simex
"""

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "bench", "BASELINE.json")

# Units whose values are wall-clock measurements (tolerance-checked).
# Everything else comes out of the deterministic simulator (exact-checked).
WALL_RUNTIME_UNITS = {"seconds"}
WALL_THROUGHPUT_UNITS = {"events_per_sec", "bytes_per_second",
                         "items_per_second"}

# Micro-kernel benches gated in CI; a filter keeps the job fast.
MICRO_FILTER = ("BM_Crc32|BM_DeflateCompress|BM_DeflateDecompress|"
                "BM_HuffmanDecode|BM_RegexCount|BM_SimulatorEvents|"
                "BM_PeriodicTaskTicks")


# JSON-metric bench binaries gated against the baseline.
FLEET_BENCHES = ("fleet_cpu_savings", "fleet_consistency")


def run_fleet(build_dir):
    """Runs the fleet benches; returns {key: (value, unit)}."""
    metrics = {}
    for name in FLEET_BENCHES:
        exe = os.path.join(build_dir, "bench", name)
        out = subprocess.run([exe], capture_output=True, text=True,
                             check=True)
        for line in out.stdout.splitlines():
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            key = f"{rec['bench']}/{rec['metric']}"
            metrics[key] = (rec["value"], rec["unit"])
    return metrics


def run_micro(build_dir):
    """Runs the micro-kernel subset; returns {key: (value, unit)}."""
    exe = os.path.join(build_dir, "bench", "micro_kernels")
    out = subprocess.run(
        [exe, f"--benchmark_filter={MICRO_FILTER}",
         "--benchmark_format=json", "--benchmark_min_time=0.2"],
        capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout)
    metrics = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        for counter in ("bytes_per_second", "items_per_second"):
            if counter in bench:
                metrics[f"micro/{name}"] = (bench[counter], counter)
    return metrics


def simulated_metric_lines(stdout):
    """Extracts the JSON metric lines whose unit is sim-domain.

    Wall-clock lines ("seconds", "events_per_sec") legitimately differ
    between runs and are excluded; everything else must be identical.
    """
    lines = []
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue
        if classify(rec.get("unit", "")) == "simulated":
            lines.append(line)
    return lines


def self_check(build_dir):
    """Runs every sim bench twice; simulated output must be identical."""
    bench_dir = os.path.join(build_dir, "bench")
    benches = sim_bench_binaries(build_dir)
    if not benches:
        print(f"self-check: no bench binaries under {bench_dir}")
        return 1

    failures = 0
    total_lines = 0
    for name in benches:
        exe = os.path.join(bench_dir, name)
        runs = []
        for _ in range(2):
            out = subprocess.run([exe], capture_output=True, text=True,
                                 check=True)
            runs.append(simulated_metric_lines(out.stdout))
        first, second = runs
        if first == second:
            total_lines += len(first)
            print(f"self-check: {name}: OK "
                  f"({len(first)} simulated metric lines identical)")
            continue
        failures += 1
        print(f"self-check: {name}: NONDETERMINISTIC")
        for a, b in zip(first, second):
            if a != b:
                print(f"  run1: {a}")
                print(f"  run2: {b}")
        if len(first) != len(second):
            print(f"  run1 emitted {len(first)} simulated lines, "
                  f"run2 emitted {len(second)}")

    if failures:
        print(f"\nself-check: {failures}/{len(benches)} benches "
              "disagree with themselves")
        return 1
    print(f"self-check: OK ({len(benches)} benches run twice, "
          f"{total_lines} simulated metric lines bit-identical)")
    return 0


# --------------------------------------------------------------------------
# Perturbation oracle.
# --------------------------------------------------------------------------

# Benches with a known, understood sensitivity to same-timestamp tie
# order. Every entry needs a reason (these are waivers, not exemptions);
# --perturb fails on a listed bench that stops diverging, so the list can
# only shrink stale. Current root cause for all of them: the DDS-path
# workload generators draw sizes/keys from one shared Pcg32 stream inside
# equal-timestamp request handlers, so permuting the ties permutes the
# draw order (not a state race — simrace runs them clean — but the
# workload itself is schedule-keyed). ROADMAP tracks moving those draws
# to per-request counter-keyed streams so this list can be emptied.
# Burned down to empty: every request stream now derives a counter-keyed
# RNG (seed ^ client-id ^ request-index), so draws no longer depend on
# same-timestamp tie order. Keep the stale-skip policy: any new entry
# must name the bench, the reason, and still diverge when checked.
PERTURB_SKIPS = {}

PERTURB_POLICIES = ("lifo", "shuffle:7")


def sim_bench_binaries(build_dir):
    """The same discovery set --self-check sweeps (sim benches only)."""
    bench_dir = os.path.join(build_dir, "bench")
    return sorted(
        name for name in os.listdir(bench_dir)
        if os.access(os.path.join(bench_dir, name), os.X_OK)
        and os.path.isfile(os.path.join(bench_dir, name))
        and name != "micro_kernels")  # google-benchmark, wall-clock only


def run_with_tiebreak(exe, policy):
    """Runs `exe` with DPDPU_SIM_TIEBREAK=policy (unset for the base run).

    Returns (simulated metric lines, stderr). check=True: a bench that
    crashes under a perturbed-but-legal schedule is itself a finding.
    """
    env = dict(os.environ)
    env.pop("DPDPU_SIM_TIEBREAK", None)
    if policy is not None:
        env["DPDPU_SIM_TIEBREAK"] = policy
    out = subprocess.run([exe], capture_output=True, text=True, check=True,
                         env=env)
    return simulated_metric_lines(out.stdout), out.stderr


def first_divergence(base, perturbed):
    """First (base line, perturbed line) pair that differs, if any."""
    for a, b in zip(base, perturbed):
        if a != b:
            return a, b
    if len(base) != len(perturbed):
        return (f"<{len(base)} simulated lines>",
                f"<{len(perturbed)} simulated lines>")
    return None


def perturb(build_dir):
    benches = sim_bench_binaries(build_dir)
    if not benches:
        print(f"perturb: no bench binaries under "
              f"{os.path.join(build_dir, 'bench')}")
        return 1

    failures = 0
    skipped = 0
    for name in benches:
        exe = os.path.join(build_dir, "bench", name)
        base, _ = run_with_tiebreak(exe, None)
        diverged = {}
        race_lines = []
        for policy in PERTURB_POLICIES:
            lines, err = run_with_tiebreak(exe, policy)
            delta = first_divergence(base, lines)
            if delta:
                diverged[policy] = delta
            race_lines += [l for l in err.splitlines() if "simrace:" in l]
        if name in PERTURB_SKIPS:
            if diverged:
                skipped += 1
                print(f"perturb: {name}: SKIP (known tie-order sensitive: "
                      f"{PERTURB_SKIPS[name]})")
            else:
                failures += 1
                print(f"perturb: {name}: STALE SKIP — no longer diverges "
                      "under any perturbed policy; remove it from "
                      "PERTURB_SKIPS")
            continue
        if not diverged:
            print(f"perturb: {name}: OK ({len(base)} simulated metric "
                  f"lines identical under {', '.join(PERTURB_POLICIES)})")
            continue
        failures += 1
        print(f"perturb: {name}: TIE-ORDER SENSITIVE")
        for policy, (a, b) in sorted(diverged.items()):
            print(f"  [{policy}] base:      {a}")
            print(f"  [{policy}] perturbed: {b}")
        for line in race_lines[:8]:
            print(f"  {line}")

    if failures:
        print(f"\nperturb: {failures}/{len(benches)} benches depend on "
              "same-timestamp tie order")
        return 1
    print(f"perturb: OK ({len(benches)} benches, {skipped} reasoned skips)")
    return 0


def perturb_selftest(build_dir):
    """The seeded order-dependent oracle must trip both halves of simrace."""
    exe = os.path.join(build_dir, "tests", "simrace_oracle")
    if not os.path.exists(exe):
        print(f"perturb-selftest: missing {exe} (build the tests target)")
        return 1
    fifo, fifo_err = run_with_tiebreak(exe, "fifo")
    lifo, lifo_err = run_with_tiebreak(exe, "lifo")
    problems = []
    if not first_divergence(fifo, lifo):
        problems.append("oracle metric did not diverge between fifo and "
                        "lifo tie-break (perturbation oracle is blind)")
    if "simrace: RACE" not in fifo_err + lifo_err:
        problems.append("oracle race was not reported on stderr "
                        "(happens-before detector is blind)")
    if "provenance:" not in fifo_err + lifo_err:
        problems.append("race report lacks provenance chains")
    for p in problems:
        print(f"perturb-selftest: FAIL: {p}")
    if problems:
        return 1
    print("perturb-selftest: OK (oracle diverges under lifo and the "
          "detector reports the race with provenance)")
    return 0


# --------------------------------------------------------------------------
# Systematic exploration (simex).
# --------------------------------------------------------------------------

# (target, smoke budget, expect_clean). pagecache-race is the seeded-bug
# self-test: the explorer must fail it, proving the exploration gate can
# still see a real schedule bug (mirrors --perturb-selftest). The
# cluster-* scenarios gate the consistency layer's failover flows (see
# src/cluster/simex_scenarios.cc); each found at least one real bug
# pre-fix, so they must stay clean. Budgets cover the full fault-branch
# fan-out of each scenario at smoke scale; nightly (16x) re-covers them
# with headroom for deeper tie reversals.
EXPLORE_TARGETS = (
    ("minitcp", 64, True),
    ("fleet", 48, True),
    ("pagecache-race", 16, False),
    ("cluster-handoff", 16, True),
    ("cluster-hint-overflow", 16, True),
    ("cluster-catchup-readmit", 16, True),
    ("cluster-refail", 64, True),
    ("cluster-writeonly-ack", 32, True),
)


def explore(build_dir, budget_scale):
    exe = os.path.join(build_dir, "tools", "simex", "simex")
    if not os.path.exists(exe):
        print(f"explore: missing {exe} (build the simex target)")
        return 1

    failures = 0
    total_schedules = 0
    total_naive_log10 = 0.0
    for target, budget, expect_clean in EXPLORE_TARGETS:
        out = subprocess.run(
            [exe, f"--target={target}", f"--budget={budget * budget_scale}"],
            capture_output=True, text=True)
        stats = None
        for line in out.stdout.splitlines():
            if line.startswith("simex-json: "):
                stats = json.loads(line[len("simex-json: "):])
        if out.returncode not in (0, 1) or stats is None:
            failures += 1
            print(f"explore: {target}: CRASHED (exit {out.returncode})")
            print(out.stdout[-2000:])
            print(out.stderr[-2000:])
            continue
        clean = out.returncode == 0
        total_schedules += stats["schedules"]
        total_naive_log10 += stats["naive_log10"]
        summary = (f"{stats['schedules']} schedules explored, naive "
                   f"~1e{stats['naive_log10']:.1f}, "
                   f"~{stats['pruning_factor']:.3g}x pruned")
        if clean == expect_clean:
            verdict = "OK" if clean else "OK (seeded bug re-found)"
            print(f"explore: {target}: {verdict} ({summary})")
            continue
        failures += 1
        if expect_clean:
            print(f"explore: {target}: SCHEDULE BUG FOUND ({summary})")
            # The CLI already minimized; surface its trace.
            for line in out.stdout.splitlines():
                print(f"  {line}")
        else:
            print(f"explore: {target}: BLIND — the seeded bug was not "
                  f"found within budget ({summary})")

    if failures:
        print(f"\nexplore: {failures}/{len(EXPLORE_TARGETS)} targets failed")
        return 1
    print(f"explore: OK ({len(EXPLORE_TARGETS)} targets, {total_schedules} "
          f"schedules explored vs ~1e{total_naive_log10:.1f} naive)")
    return 0


def classify(unit):
    if unit in WALL_RUNTIME_UNITS:
        return "wall_runtime"
    if unit in WALL_THROUGHPUT_UNITS:
        return "wall_throughput"
    return "simulated"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="wall-clock tolerance factor (default 3x)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--self-check", action="store_true",
                        help="run each sim bench twice and require "
                             "bit-identical simulated metrics")
    parser.add_argument("--perturb", action="store_true",
                        help="rerun each sim bench under perturbed "
                             "tie-break policies and require identical "
                             "simulated metrics")
    parser.add_argument("--perturb-selftest", action="store_true",
                        help="prove the perturbation oracle catches the "
                             "seeded order-dependent handler")
    parser.add_argument("--explore", action="store_true",
                        help="run the simex model checker over its "
                             "scenario targets (smoke budgets)")
    parser.add_argument("--explore-budget-scale", type=int, default=1,
                        help="multiply every --explore budget (nightly "
                             "deep runs)")
    args = parser.parse_args()

    if args.self_check:
        return self_check(args.build_dir)
    if args.perturb:
        return perturb(args.build_dir)
    if args.perturb_selftest:
        return perturb_selftest(args.build_dir)
    if args.explore:
        return explore(args.build_dir, args.explore_budget_scale)

    current = {}
    current.update(run_fleet(args.build_dir))
    current.update(run_micro(args.build_dir))

    if args.update:
        doc = {key: {"value": value, "unit": unit}
               for key, (value, unit) in sorted(current.items())}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline updated: {args.baseline} ({len(doc)} metrics)")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = []
    checked = 0
    for key, entry in sorted(baseline.items()):
        base_value, unit = entry["value"], entry["unit"]
        if key not in current:
            failures.append(f"MISSING  {key}: bench no longer emits it")
            continue
        value, cur_unit = current[key]
        if cur_unit != unit:
            failures.append(f"UNIT     {key}: {unit} -> {cur_unit}")
            continue
        checked += 1
        kind = classify(unit)
        if kind == "simulated":
            # Deterministic contract: exact float equality.
            if value != base_value:
                failures.append(
                    f"DRIFT    {key}: {base_value!r} -> {value!r} "
                    "(simulated metric must be bit-identical)")
        elif kind == "wall_runtime":
            if value > base_value * args.tolerance:
                failures.append(
                    f"SLOWER   {key}: {value:.3f}s > "
                    f"{args.tolerance:.1f}x baseline {base_value:.3f}s")
        else:  # wall_throughput
            if value < base_value / args.tolerance:
                failures.append(
                    f"SLOWER   {key}: {value:.3e} < baseline "
                    f"{base_value:.3e} / {args.tolerance:.1f}")

    # A bench that runs under the race checker must also report the
    # checker's dynamic footprint: race_check_objects is how the
    # annotation sweep stays observable (simscope gates the static side,
    # this gates the dynamic one).
    for key, (value, unit) in sorted(current.items()):
        if not key.endswith("/race_check_enabled") or value != 1:
            continue
        bench = key.rsplit("/", 1)[0]
        if f"{bench}/race_check_objects" not in current:
            failures.append(
                f"MISSING  {bench}/race_check_objects: race-checked "
                "bench must report its observed-object count")

    new_keys = sorted(set(current) - set(baseline))
    for key in new_keys:
        print(f"note: unbaselined metric {key} (run --update to adopt)")

    if failures:
        print(f"\ncheck_bench: {len(failures)} failure(s) "
              f"({checked} metrics checked):")
        for failure in failures:
            print(" ", failure)
        return 1
    print(f"check_bench: OK ({checked} metrics checked, "
          f"{len(new_keys)} unbaselined)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
