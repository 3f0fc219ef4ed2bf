#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve_fusion_hot --seed 1 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt: the deepfusion library,
score_server_node and the perfbench binary, Release) into .bench_build at
the checkout root, or into $CARGO_TARGET_DIR when that names a relative
directory, then runs the workload. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Exits non-zero, without a
result, when the sources are missing or the build fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("screen_campaign", "serve_fusion_hot", "cluster_many_targets")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if target and not os.path.isabs(target) and ".." not in target.split(os.sep):
        return os.path.join(ROOT, target)
    return os.path.join(ROOT, ".bench_build")


def build(out_dir):
    """Configure once, then build the benchmark target. True on success."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)  # retry the configure next time
            return False
    cmd = ["cmake", "--build", out_dir, "--target", "perfbench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds within 1..120")

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Own process group, so that score_server_node children cannot outlive
    # the run even when the benchmark itself dies or times out.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
