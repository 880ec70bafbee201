#!/usr/bin/env python3
"""Benchmark regression gate.

Runs the repo's bench binaries and compares their emitted metrics against
the committed baseline (bench/BASELINE.json).

A sim bench is any binary under <build-dir>/bench other than
micro_kernels. Each one runs three times, concurrently on os.cpu_count()
workers: under the default FIFO tie-break, and with
DPDPU_SIM_TIEBREAK=lifo and =shuffle:7. Then:

  * Simulated metrics (the `{"bench":...}` JSON lines with sim-domain
    units) of the FIFO run are products of the deterministic simulator:
    they must match the baseline BIT-EXACTLY (DRIFT). Any drift means a
    behavior change, not a perf change.
  * Wall-clock metrics ("seconds", "events_per_sec" lines and
    google-benchmark bytes/items-per-second counters) are jitter-prone,
    especially on shared CI runners, so they get a generous tolerance:
    throughputs may not drop below baseline/TOL, runtimes may not exceed
    baseline*TOL (default TOL=3) (SLOWER).
  * The lifo and shuffle:7 simulated lines must equal the FIFO ones
    (TIE-ORDER). The tie-break only reorders events sharing a timestamp,
    orderings the model claims to be insensitive to, so any difference
    is a schedule dependence. The report shows the first differing line
    pair and the run's `simrace:` stderr lines.
  * A baselined metric no bench emits fails (MISSING), and so does an
    emitted metric the baseline does not list (NEW), so every bench
    stays gated. A bench that exits non-zero under any policy fails
    (EXIT).

micro_kernels runs after the matrix, alone, so its throughput is not
measured under contention. --update rewrites the baseline from the FIFO
runs plus micro_kernels; it refuses when a bench failed or a perturbed
run diverged. scripts/test_check_bench.py exercises every failure mode.

--explore goes beyond the three sampled schedules: it drives the simex
model checker (build/tools/simex/simex) over its scenario targets, which
enumerate same-timestamp orderings (DPOR-pruned via simrace's causal
DAG) and fault-injection choice points (node fail/recover timing,
frame-drop placement). Clean targets must explore clean; the seeded
pagecache-race target must FAIL, proving the explorer still finds real
bugs. Reports schedules explored vs the naive enumeration pruned away.
--explore-budget-scale N deepens the walk for the nightly run.

Usage:
  python3 scripts/check_bench.py --build-dir build              # check
  python3 scripts/check_bench.py --build-dir build --update     # re-baseline
  python3 scripts/check_bench.py --build-dir build --explore    # simex
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "bench", "BASELINE.json")

# Units whose values are wall-clock measurements (tolerance-checked).
# Everything else comes out of the deterministic simulator (exact-checked).
WALL_RUNTIME_UNITS = {"seconds"}
WALL_THROUGHPUT_UNITS = {"events_per_sec", "bytes_per_second",
                         "items_per_second"}

# Micro-kernel benches gated in CI; a filter keeps the job fast.
MICRO_FILTER = ("BM_ChaCha20|BM_Crc32|BM_DeflateCompress|"
                "BM_DeflateDecompress|BM_HuffmanDecode|BM_RegexCount|"
                "BM_SimulatorEvents|BM_SimulatorDeepHeap")

# The run matrix's tie-break policies. The first is the default order and
# the one checked against the baseline; the others must reproduce it.
TIEBREAKS = ("fifo", "lifo", "shuffle:7")


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


def metric_records(stdout):
    """The JSON metric lines of a bench's stdout, as (line, record)."""
    records = []
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        try:
            records.append((line, json.loads(line)))
        except json.JSONDecodeError:
            continue
    return records


def simulated_lines(records):
    """The lines of `records` whose unit is sim-domain.

    Wall-clock lines ("seconds", "events_per_sec") legitimately differ
    between runs and are excluded; everything else must be identical.
    """
    return [line for line, rec in records
            if classify(rec.get("unit", "")) == "simulated"]


def sim_bench_binaries(build_dir):
    """Every executable under <build_dir>/bench except micro_kernels."""
    bench_dir = os.path.join(build_dir, "bench")
    return sorted(
        name for name in os.listdir(bench_dir)
        if os.access(os.path.join(bench_dir, name), os.X_OK)
        and os.path.isfile(os.path.join(bench_dir, name))
        and name != "micro_kernels")  # google-benchmark, wall-clock only


def run_with_tiebreak(exe, policy):
    """Runs `exe` under DPDPU_SIM_TIEBREAK=policy; returns the process."""
    env = dict(os.environ, DPDPU_SIM_TIEBREAK=policy)
    return subprocess.run([exe], capture_output=True, text=True, env=env)


def first_divergence(base, perturbed):
    """First (base line, perturbed line) pair that differs, if any."""
    for a, b in zip(base, perturbed):
        if a != b:
            return a, b
    if len(base) != len(perturbed):
        return (f"<{len(base)} simulated lines>",
                f"<{len(perturbed)} simulated lines>")
    return None


def run_matrix(build_dir):
    """Runs every sim bench under every TIEBREAKS policy, concurrently.

    Returns ({key: (value, unit)} of the fifo runs, [failure]): a bench
    that exits non-zero, and a perturbed run whose simulated lines differ
    from the fifo run's.
    """
    benches = sim_bench_binaries(build_dir)
    jobs = [(name, policy) for name in benches for policy in TIEBREAKS]
    workers = os.cpu_count() or 1
    print(f"run matrix: {len(benches)} sim benches x "
          f"{'/'.join(TIEBREAKS)} on {workers} workers", flush=True)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        procs = pool.map(
            lambda job: run_with_tiebreak(
                os.path.join(build_dir, "bench", job[0]), job[1]),
            jobs)
        runs = dict(zip(jobs, procs))

    metrics = {}
    failures = []
    for name in benches:
        for policy in TIEBREAKS:
            proc = runs[name, policy]
            if proc.returncode != 0:
                failures.append("\n".join(
                    [f"EXIT     {name} [{policy}]: exit status "
                     f"{proc.returncode}"] +
                    [f"    {line}" for line in proc.stderr.splitlines()[-5:]]))
        base_records = metric_records(runs[name, TIEBREAKS[0]].stdout)
        for _, rec in base_records:
            metrics[f"{rec['bench']}/{rec['metric']}"] = (rec["value"],
                                                         rec["unit"])
        base = simulated_lines(base_records)
        for policy in TIEBREAKS[1:]:
            proc = runs[name, policy]
            delta = first_divergence(
                base, simulated_lines(metric_records(proc.stdout)))
            if delta is None:
                continue
            race_lines = [line for line in proc.stderr.splitlines()
                          if "simrace:" in line]
            failures.append("\n".join(
                [f"TIE-ORDER {name} [{policy}]: simulated lines differ "
                 f"from {TIEBREAKS[0]}",
                 f"    {TIEBREAKS[0]}: {delta[0]}",
                 f"    {policy}: {delta[1]}"] +
                [f"    {line}" for line in race_lines[:8]]))
    return metrics, failures


# --------------------------------------------------------------------------
# Systematic exploration (simex).
# --------------------------------------------------------------------------

# (target, smoke budget, expect_clean). pagecache-race is the seeded-bug
# self-test: the explorer must fail it, proving the exploration gate can
# still see a real schedule bug (scripts/test_check_bench.py does the
# same for the run matrix with simrace_oracle). The cluster-* scenarios
# gate the consistency layer's failover flows (see
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
    parser.add_argument("--explore", action="store_true",
                        help="run the simex model checker over its "
                             "scenario targets (smoke budgets)")
    parser.add_argument("--explore-budget-scale", type=int, default=1,
                        help="multiply every --explore budget (nightly "
                             "deep runs)")
    args = parser.parse_args()

    if args.explore:
        return explore(args.build_dir, args.explore_budget_scale)

    current, failures = run_matrix(args.build_dir)
    if args.update and failures:
        print(f"\ncheck_bench: not updating the baseline, "
              f"{len(failures)} run matrix failure(s):")
        for failure in failures:
            print(" ", failure)
        return 1
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
    # Every emitted metric must be gated, including a new bench's.
    for key in sorted(set(current) - set(baseline)):
        failures.append(f"NEW      {key}: not in the baseline "
                        "(run --update to adopt)")

    if failures:
        print(f"\ncheck_bench: {len(failures)} failure(s) "
              f"({checked} metrics checked):")
        for failure in failures:
            print(" ", failure)
        return 1
    simulated = sum(1 for _, unit in current.values()
                    if classify(unit) == "simulated")
    print(f"check_bench: OK ({checked} metrics checked; {simulated} "
          f"simulated lines identical under {'/'.join(TIEBREAKS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
