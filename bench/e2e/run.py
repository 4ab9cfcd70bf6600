#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. Builds magicd and magic_bench from the
checkout's sources into .bench_build/ (CMake, Release; the first run also
trains the benchmark's model checkpoints), then runs one workload, or all
four with --workload all. The last line of standard output is magic_bench's
result JSON. A result file with the host block goes to
.bench_build/results/, next to TRACE_<workload>.json for traced runs.
Exits nonzero when the build fails, a correctness gate fails, or the
checkout holds no sources to build.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
# magic_bench's own limit; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message: str, code: int = 2) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build() -> None:
    """Configures once, then (re)builds the two targets, logging to a file."""
    log_path = BUILD / "build.log"
    cache = BUILD / "CMakeCache.txt"
    source = ROOT / "bench" / "e2e"
    # A build tree configured for another source path cannot be reused.
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={source}\n" not in cache.read_text():
        cache.unlink()
        shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
    with open(log_path, "w") as log:
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(source), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                      "--target", "magic_bench", "magicd"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})", 1)


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    """HEAD's sha, with "-dirty" when the tree differs from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, check=True).stdout.strip()
    try:
        sha = git("rev-parse", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "serve" / "magicd.cpp").is_file():
        fail(f"no repository sources to build under {ROOT}")

    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
    bench = BUILD / "magic_bench"
    magicd = BUILD / "magic" / "src" / "serve" / "magicd"

    # Checkpoints are trained by the built code, so a rebuild that changes
    # the binaries gets fresh ones.
    stamp = digest([bench, magicd])
    models_root = BUILD / "models"
    models_root.mkdir(exist_ok=True)
    for stale in models_root.iterdir():
        if stale.name != stamp:
            shutil.rmtree(stale, ignore_errors=True)
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    work = BUILD / "work" / str(os.getpid())

    out = results / f"RESULT_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--magicd", str(magicd), "--models", str(models_root / stamp),
           "--work", str(work), "--out", str(out), "--git-sha", git_sha()]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    # A session of its own, so a timeout can stop magic_bench and every
    # magicd it started together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("magic_bench did not finish in time", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
