#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). The benchmark's standard
output is passed through unchanged; its last line is the JSON result. The
exit code is the benchmark's, or 1 when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Longest a single run may take once built (the build itself is not bounded).
RUN_TIMEOUT_S = 170


def capture(cmd, **kw):
    """First line of a command's output, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=True, **kw)
        return out.stdout.strip().splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1

    # Never look above the checkout for a repository.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().resolve().parent))
    provenance = [
        "--rev", capture(["git", "rev-parse", "HEAD"], env=git_env),
        "--rustc", capture(["rustc", "-V"]),
        "--out-dir", str(target / "perfbench"),
    ]
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:], *provenance]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
