#!/usr/bin/env python3
"""Lists the src/ functions that no workload executes (DESIGN.md section 5).

    python3 scripts/coverage_union.py <checkout>

Builds Debug `-O1 --coverage` trees of the checkout and of its perfbench/
(<checkout>/build-cov, build-cov-pb) and runs, with DPDPU_SIM_RACECHECK=0,
the workloads every reported number comes from: the 14 sim benches, the 6
examples and the 3 perfbench workloads at seed 1, traced and untraced; a
failed run stops it. Prints each src/ function that no run executed, by file,
from `gcov --json-format` over both trees (template instantiations count one
by one). It takes minutes, so it is neither a ctest nor a CI job.
"""

import glob
import json
import os
import subprocess
import sys

FLAGS = "-O1 --coverage -fprofile-update=single"
PERFBENCH_WORKLOADS = ("kernel_offload", "kernel_hot", "fleet_kv")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build(source, tree, targets):
    for cmd in (["cmake", "-S", source, "-B", tree, "-DCMAKE_BUILD_TYPE=Debug",
                 "-DCMAKE_CXX_FLAGS=" + FLAGS],
                ["cmake", "--build", tree, "-j", JOBS, "--target"] + targets):
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(out.stdout + out.stderr)
    for stale in glob.glob(os.path.join(tree, "**", "*.gcda"), recursive=True):
        os.remove(stale)


def run(cmd):
    env = dict(os.environ, DPDPU_SIM_RACECHECK="0")
    out = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if out.returncode != 0:
        sys.exit("%s exited %d" % (" ".join(cmd), out.returncode))
    return out.stdout


def executions(trees, root):
    """(file, mangled name) -> [demangled name, first line, executions]."""
    functions = {}
    src = os.path.join(root, "src") + os.sep
    for tree in trees:
        notes = glob.glob(os.path.join(tree, "**", "*.gcno"), recursive=True)
        out = subprocess.run(["gcov", "--json-format", "--stdout"] + notes,
                             cwd=tree, capture_output=True, text=True,
                             check=True).stdout
        for doc in (json.loads(l) for l in out.splitlines() if l[:1] == "{"):
            for f in doc["files"]:
                path = os.path.normpath(os.path.join(
                    doc["current_working_directory"], f["file"]))
                if not path.startswith(src):
                    continue
                for fn in f["functions"]:
                    entry = functions.setdefault(
                        (os.path.relpath(path, root), fn["name"]),
                        [fn["demangled_name"], fn["start_line"], 0])
                    entry[2] += fn["execution_count"]
    return functions


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    root = os.path.abspath(sys.argv[1])
    cov = os.path.join(root, "build-cov")
    cov_pb = os.path.join(root, "build-cov-pb")
    binaries = {os.path.splitext(os.path.relpath(p, root))[0]
                for p in glob.glob(os.path.join(root, "bench", "*.cc")) +
                glob.glob(os.path.join(root, "examples", "*.cpp"))}
    binaries = sorted(binaries - {os.path.join("bench", "micro_kernels")})
    build(root, cov, [os.path.basename(b) for b in binaries])
    build(os.path.join(root, "perfbench"), cov_pb, ["perfbench"])

    for b in binaries:
        run([os.path.join(cov, b)])
    for w in PERFBENCH_WORKLOADS:
        for trace in "01":
            cmd = [os.path.join(cov_pb, "perfbench"), "--workload", w,
                   "--seed", "1", "--seconds", "3", "--trace", trace]
            if not json.loads(run(cmd).splitlines()[-1]).get("correct"):
                sys.exit("%s: not correct" % " ".join(cmd))
    print("%d runs exited 0" % (len(binaries) + 2 * len(PERFBENCH_WORKLOADS)))

    functions = executions((cov, cov_pb), root)
    never = sorted((path, line, name)
                   for (path, _), (name, line, count) in functions.items()
                   if count == 0)
    current = None
    for path, line, name in never:
        if path != current:
            print(path)
            current = path
        print("  %5d  %s" % (line, name))
    print("%d of %d instrumented src/ functions never executed" %
          (len(never), len(functions)))


if __name__ == "__main__":
    main()
