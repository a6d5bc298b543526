#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload chat|fork_resume|encode \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and its
log to stderr; stdout carries the benchmark's own output, whose last
line is the JSON result. The exit code is the benchmark's: 0 when
every output check passed. Without the library sources next to this
directory the build fails and the script exits 1 without a result.
"""

import os
import subprocess
import sys
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def build() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = root / "perfbench"
    subprocess.run(
        ["cmake", "-S", str(SOURCE_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    # The library reads CTA_* knobs from the environment; the benchmark
    # fixes its own settings, so none may leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CTA_")}
    return subprocess.run([str(binary), *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
