#!/usr/bin/env python3
"""simscope dynamic cross-check driver.

Runs every simulator-driven test binary in the build tree with the race
checker on, concurrently on os.cpu_count() workers. Each binary gets its
own DPDPU_SIM_RACE_COVERAGE file, to which every RaceChecker appends the
object names it actually observed (concurrent appends to one shared file
could interleave partial lines). The per-binary dumps are concatenated
and `simscope --xcheck` diffs the statically reachable annotations
against that dynamic observation set. A statically reachable annotation that is
never observed is a dead annotation or an untested path (rule S2) — the
static analyzer cannot tell which, but either one means simrace is not
exercising what simscope claims is covered.

Exit status is simscope's: 0 when every reachable annotation was
observed, 1 otherwise. Binaries that fail under the race checker fail
the run too (a race found on the way to coverage is still a race).
"""

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

# Simulator-driven gtest binaries (tests/CMakeLists.txt targets). The
# simex explorer binaries are excluded: they run deliberately racy
# schedules with a quiet checker, which would pollute both coverage and
# failure accounting.
TEST_BINARIES = [
    "ce_test",
    "cluster_test",
    "common_test",
    "deflate_test",
    "extension_test",
    "fs_model_test",
    "fssub_test",
    "hw_test",
    "integration_test",
    "kern_test",
    "ne_test",
    "netsub_test",
    "rt_test",
    "se_test",
    "sim_test",
    "simex_scenarios_test",
    "simex_test",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (default: build)")
    parser.add_argument("--repo-root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))),
                        help="repository root (default: this script's "
                             "parent's parent)")
    parser.add_argument("--keep-coverage", default=None, metavar="FILE",
                        help="write the merged coverage dump here instead "
                             "of a temp file")
    args = parser.parse_args()

    tests_dir = os.path.join(args.build_dir, "tests")
    missing = [t for t in TEST_BINARIES
               if not os.path.exists(os.path.join(tests_dir, t))]
    if missing:
        print(f"run_xcheck: missing test binaries under {tests_dir}: "
              f"{', '.join(missing)} (build first)", file=sys.stderr)
        return 2

    env = dict(os.environ, DPDPU_SIM_RACECHECK="1")
    with tempfile.TemporaryDirectory(prefix="simscope_cov_") as cov_dir:
        def run(test):
            return subprocess.run(
                [os.path.join(tests_dir, test)],
                env=dict(env, DPDPU_SIM_RACE_COVERAGE=os.path.join(
                    cov_dir, f"{test}.txt")),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)

        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            procs = list(pool.map(run, TEST_BINARIES))
        failed = []
        for t, proc in zip(TEST_BINARIES, procs):
            if proc.returncode != 0:
                failed.append(t)
                sys.stderr.buffer.write(proc.stderr)
        if failed:
            print(f"run_xcheck: {len(failed)} test binar"
                  f"{'y' if len(failed) == 1 else 'ies'} failed under "
                  f"the race checker: {', '.join(failed)}",
                  file=sys.stderr)
            return 1

        cov_path = (os.path.abspath(args.keep_coverage)
                    if args.keep_coverage
                    else os.path.join(cov_dir, "coverage.txt"))
        with open(cov_path, "w") as merged:
            for t in TEST_BINARIES:
                dump = os.path.join(cov_dir, f"{t}.txt")
                if os.path.exists(dump):
                    with open(dump) as f:
                        merged.write(f.read())

        simscope = os.path.join(args.repo_root, "tools", "simscope",
                                "simscope.py")
        return subprocess.run(
            [sys.executable, simscope, "--xcheck",
             "--coverage", cov_path],
            cwd=args.repo_root).returncode


if __name__ == "__main__":
    sys.exit(main())
