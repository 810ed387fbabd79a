#!/usr/bin/env python3
"""Campaign benchmark: builds perfbench/ from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a DTS checkout. The first run configures and builds the
library and the `perfbench` binary under .bench_build/ (about 1.5 minutes on
4 cores); later runs only re-check the build. The workload runs in its own
child process, so one workload's memory never shows in another's
peak_rss_mb. The last line of stdout is the JSON result; everything else
(build log, outcome percentages, metric table) goes to stderr.

See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("exhaustive", "deep_planned")
CHILD_TIMEOUT_S = 170
ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no DTS sources at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return BUILD_DIR / "perfbench"


def cache_fingerprint():
    """Stat-only fingerprint of .dts_bench_cache: names, sizes, mtimes and
    atimes. Taking it reads no file, so a changed atime means the workload read
    the cache (where the filesystem records atimes)."""
    cache = ROOT / ".dts_bench_cache"
    if not cache.is_dir():
        return None
    return sorted((p.name, s.st_size, s.st_mtime_ns, s.st_atime_ns)
                  for p in cache.iterdir() for s in [p.stat()])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    work_dir = BUILD_DIR.parent / "work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    cache_before = cache_fingerprint()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work_dir)]
    # Its own process group, so a timeout also stops the sweep processes the
    # workload forks.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        die(f"workload {args.workload} exceeded {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        die(f"workload {args.workload} exited with {child.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        die("workload printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"malformed result: {lines[-1]}")
    if cache_fingerprint() != cache_before:
        print("perfbench: CHECK FAILED: .dts_bench_cache was read or modified",
              file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
