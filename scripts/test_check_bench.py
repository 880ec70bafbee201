#!/usr/bin/env python3
"""Self-tests for the bench gate (scripts/check_bench.py).

Each test lays out a throwaway build dir whose bench/ holds tiny
executable fake benches that print JSON metric lines, a fake
micro_kernels that reports no benchmarks and, for the tie-order case, a
copy of the real tests/simrace_oracle. It runs check_bench.py on that
dir against a throwaway baseline and asserts the verdict and the
report line of one failure mode. Run directly or via ctest
(`check_bench_selftest`); --build-dir names the build tree that holds
tests/simrace_oracle (default: build).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")
BUILD_DIR = "build"  # --build-dir

BASELINE = {
    "clean/cores": {"value": 2.5, "unit": "cores"},
    "clean/wall_runtime": {"value": 1.0, "unit": "seconds"},
}


def metric_line(metric, value, unit):
    return json.dumps({"bench": "clean", "metric": metric, "value": value,
                       "unit": unit, "seed": 1}, separators=(",", ":"))


def fake_bench(cores=2.5, wall=1.0, extra=(), exit_code=0):
    """Source of a bench that prints the baselined metrics of `clean`."""
    lines = [metric_line("cores", cores, "cores"),
             metric_line("wall_runtime", wall, "seconds")]
    lines += [metric_line(name, value, "cores") for name, value in extra]
    return (f"#!{sys.executable}\n"
            "import sys\n"
            f"print({chr(10).join(lines)!r})\n"
            f"sys.exit({exit_code})\n")


FAKE_MICRO = f"#!{sys.executable}\nprint('{{\"benchmarks\": []}}')\n"


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="check_bench_selftest_")
        self.bench_dir = os.path.join(self.tmp, "bench")
        os.makedirs(self.bench_dir)
        self.baseline = os.path.join(self.tmp, "BASELINE.json")
        self.write_baseline(BASELINE)
        self.add_bench("micro_kernels", FAKE_MICRO)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def write_baseline(self, doc):
        with open(self.baseline, "w") as f:
            json.dump(doc, f)

    def add_bench(self, name, source):
        path = os.path.join(self.bench_dir, name)
        with open(path, "w") as f:
            f.write(source)
        os.chmod(path, 0o755)

    def gate(self, *args):
        """Runs check_bench.py on the fake build dir; returns (rc, stdout)."""
        proc = subprocess.run(
            [sys.executable, CHECK_BENCH, "--build-dir", self.tmp,
             "--baseline", self.baseline, *args],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def assert_fails_with(self, *lines):
        rc, out = self.gate()
        self.assertEqual(rc, 1, out)
        for line in lines:
            self.assertIn(line, out)

    def test_clean_bench_passes(self):
        self.add_bench("clean", fake_bench())
        rc, out = self.gate()
        self.assertEqual(rc, 0, out)
        self.assertIn("check_bench: OK (2 metrics checked; 1 simulated", out)

    def test_update_records_fifo_metrics(self):
        self.add_bench("clean", fake_bench())
        self.write_baseline({})
        rc, out = self.gate("--update")
        self.assertEqual(rc, 0, out)
        with open(self.baseline) as f:
            self.assertEqual(json.load(f), BASELINE)

    def test_drifted_simulated_value_fails(self):
        self.add_bench("clean", fake_bench(cores=2.5000000000000004))
        self.assert_fails_with("DRIFT    clean/cores: 2.5 -> "
                               "2.5000000000000004")

    def test_key_no_longer_emitted_fails(self):
        self.add_bench("clean", fake_bench())
        self.write_baseline(
            dict(BASELINE, **{"clean/gone": {"value": 1, "unit": "cores"}}))
        self.assert_fails_with("MISSING  clean/gone")

    def test_unbaselined_key_fails(self):
        self.add_bench("clean", fake_bench(extra=[("added", 3)]))
        self.assert_fails_with("NEW      clean/added")

    def test_wall_value_over_tolerance_fails(self):
        self.add_bench("clean", fake_bench(wall=3.5))
        self.assert_fails_with("SLOWER   clean/wall_runtime")

    def test_nonzero_exit_fails(self):
        self.add_bench("clean", fake_bench(exit_code=1))
        self.assert_fails_with(
            *(f"EXIT     clean [{policy}]: exit status 1"
              for policy in ("fifo", "lifo", "shuffle:7")))

    def test_tie_order_dependence_fails(self):
        oracle = os.path.join(BUILD_DIR, "tests", "simrace_oracle")
        self.assertTrue(os.path.exists(oracle),
                        f"missing {oracle} (build the simrace_oracle target)")
        shutil.copy(oracle, self.bench_dir)
        self.write_baseline(dict(BASELINE, **{
            "simrace_oracle/last_writer": {"value": 2, "unit": "id"}}))
        self.add_bench("clean", fake_bench())
        rc, out = self.gate()
        self.assertEqual(rc, 1, out)
        self.assertIn("TIE-ORDER simrace_oracle [lifo]", out)
        self.assertIn("simrace: RACE on oracle.winner", out)
        self.assertNotIn("DRIFT", out)
        self.assertNotIn("clean", out)
        # --update must not adopt a column the perturbed runs contradict.
        with open(self.baseline) as f:
            before = f.read()
        rc, out = self.gate("--update")
        self.assertEqual(rc, 1, out)
        self.assertIn("not updating the baseline", out)
        with open(self.baseline) as f:
            self.assertEqual(f.read(), before)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--build-dir", default=BUILD_DIR)
    args, rest = parser.parse_known_args()
    BUILD_DIR = args.build_dir
    unittest.main(argv=[sys.argv[0]] + rest)
