#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the simulator).

    python3 perfbench/selftest.py

Checks, for every workload:
  1. At a tiny size, an untraced and a traced run print every metric that
     BENCHMARK.json names (end_to_end and per_layer), with its unit, and
     report correct with no failed op.
  2. A planted fault shows up as failed ops, so the output checks cannot
     be blind: one flipped byte in the first output of the wrapped compress
     kernel (kernel workloads), or every storage node's shard zeroed behind
     the storage engine's back, which later reads must report as stale
     (fleet_kv).
  3. Schedule insensitivity: at the default seed, the sim_* metrics and the
     digest under DPDPU_SIM_TIEBREAK=lifo and shuffle:7 equal the FIFO run.
     Workloads in TIE_TOLERANCE are held to that relative tolerance on
     sim_* and their digest is reported, not required. Reversing single
     ties located the cause (README.md): a sim::Resource job completion in
     the same nanosecond as an open-loop arrival (kernel_offload) or as a
     netsub frame delivery (fleet_kv). The benchmark's own submissions
     never tie with each other.
  4. The FIFO run at the default seed reproduces the pinned digest (the
     binary checks it and reports correct=false otherwise).
Exits non-zero when any check fails.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (same directory)

WORKLOADS = ["kernel_offload", "kernel_hot", "fleet_kv"]
# Planted fault per workload: the --corrupt argument and what it does.
PLANTED = {
    "kernel_offload": ("compress", "a flipped byte in a compress output"),
    "kernel_hot": ("compress", "a flipped byte in a compress output"),
    "fleet_kv": ("shard", "zeroing every storage node's shard mid-run"),
}
TIE_TOLERANCE = {"kernel_offload": 0.0, "fleet_kv": 1e-4}
TINY = "0.05"
failures = []


def check(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, extra=(), env=None, seed=1):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)] + list(extra)
    full_env = dict(os.environ)
    full_env.pop("DPDPU_SIM_TIEBREAK", None)
    full_env.update(env or {})
    p = subprocess.run(cmd, capture_output=True, text=True, env=full_env,
                       timeout=run.RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    digest = re.search(r"digest=(0x[0-9a-f]+)", p.stdout)
    return result, digest.group(1) if digest else None


def main():
    if not run.build():
        print("FAIL  build", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    for w in WORKLOADS:
        for trace in (0, 1):
            r, _ = bench(w, trace, ["--scale", TINY])
            if r is None:
                check(False, "%s trace=%d ran" % (w, trace))
                continue
            emitted = {k: v["unit"] for k, v in r["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and
                         math.isfinite(v["value"])
                         for v in r["metrics"].values())
            check(emitted == declared[trace] and finite,
                  "%s trace=%d emits every declared metric with its unit"
                  % (w, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s trace=%d is correct with no failed op" % (w, trace))

    for w, (fault, what) in PLANTED.items():
        r, _ = bench(w, 0, ["--scale", TINY, "--corrupt", fault])
        check(r is not None and r["failed"] >= 1 and not r["correct"],
              "%s: %s fails an op" % (w, what))

    for w in WORKLOADS:
        base, base_digest = bench(w, 0)
        check(base is not None and base["correct"],
              "%s: default seed is correct and matches its pinned digest" % w)
        if base is None:
            continue
        for tie in ("lifo", "shuffle:7"):
            r, digest = bench(w, 0, env={"DPDPU_SIM_TIEBREAK": tie})
            if r is None:
                check(False, "%s under %s ran" % (w, tie))
                continue
            sims = [k for k in base["metrics"] if k.startswith("sim_")]
            worst = max(abs(r["metrics"][k]["value"] -
                            base["metrics"][k]["value"]) /
                        abs(base["metrics"][k]["value"]) for k in sims)
            if w in TIE_TOLERANCE:
                check(worst <= TIE_TOLERANCE[w],
                      "%s under %s: sim_* within %g of FIFO (worst %.2g, "
                      "digest %s)" % (w, tie, TIE_TOLERANCE[w], worst,
                                      "equal" if digest == base_digest
                                      else "differs"))
            else:
                check(worst == 0 and digest == base_digest,
                      "%s under %s: sim_* and digest identical to FIFO"
                      % (w, tie))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
