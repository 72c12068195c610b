#!/usr/bin/env python3
"""Builds the benchmark harness from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test      # the output checks' own tests

The harness is compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) under the checkout root; an up-to-date build is a
no-op. The harness prints its metrics as the last line of stdout, and this
script passes its output and exit code through. Everything the run writes
(build tree, temporary settlement logs, trace files) stays under that build
directory.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path, target: str) -> None:
    env = dict(os.environ)
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler scratch inside the checkout
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", target],
                   check=True, stdout=sys.stderr, env=env)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    target = "perfbench_checks_test" if args.self_test else "perfbench_harness"
    try:
        build(build_dir, target)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    if args.self_test:
        return subprocess.run([str(build_dir / target)]).returncode

    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / target), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    harness = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return harness.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        harness.kill()
        harness.wait()
        # A killed harness cannot delete its own temporary logs.
        shutil.rmtree(out_dir / f"tmp-{harness.pid}", ignore_errors=True)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
