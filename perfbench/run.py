#!/usr/bin/env python3
"""Build and run the sa-opt end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (which pulls in the library from the parent directory) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build.  Build output goes to stderr, so the benchmark's
last line of standard output is its JSON result.  Generated data, spans
and checkpoints live under the build directory.

    python3 perfbench/run.py --write-references

regenerates perfbench/references.txt (the stored final objective of every
workload instance) after a change that legitimately moves results.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out: Path) -> None:
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr,
    )


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-references", action="store_true")
    args = p.parse_args()

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = out / "work"
    cmd = [str(out / "perfbench"), "--work-dir", str(work)]
    if args.write_references:
        cmd += ["--write-references", str(HERE / "references.txt")]
        return subprocess.run(cmd).returncode
    if not args.workload:
        p.error("--workload is required")
    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--references", str(HERE / "references.txt")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
