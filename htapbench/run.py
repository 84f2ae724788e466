#!/usr/bin/env python3
"""Builds htapdb and the benchmark in Release, then runs one workload.

    python3 htapbench/run.py --workload <oltp|olap|mixed|mixed_disk> \
        --seed <n> --seconds <s> --trace <0|1> [--selftest 1]

Run it from the root of the repository. The build tree is
$CARGO_TARGET_DIR/htapbench-release (default .bench_build/...), configured
from htapbench/CMakeLists.txt alone: it never reuses build/ or a Debug,
sanitizer or lock-rank tree. The last line of standard output is the
benchmark's JSON result; build output goes to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "htapbench")
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "commit-" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "htapbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    def step(cmd):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build_dir, "--target", "htapbench", "-j4"])
    return os.path.join(build_dir, "htapbench")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", choices=["0", "1"], default="0")
    args = p.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "core", "database.h")):
        sys.exit("htapdb sources not found under %s/src" % ROOT)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "htapbench-release")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--selftest", args.selftest, "--work-dir", work_dir,
           "--source", source_id()]
    sys.stdout.flush()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
