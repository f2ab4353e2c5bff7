#!/usr/bin/env python3
"""Repo benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload center_shift|interference|metadata_churn
                             --seed N --seconds S --trace 0|1

Builds the library and `perfbench` from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), checks once per build that the composed
workloads reproduce the shipped paths at the paper seeds, then runs
`perfbench`, which prints every metric by name with its unit; the last line
of stdout is the JSON result, with `correct` also false when the fidelity
check failed. Exits non-zero, printing no result, when anything cannot run.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHIPPED = ("bench_s1_center_day", "bench_c16_interference")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build perfbench plus the shipped benches it mirrors."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench", *SHIPPED],
                   check=True, stdout=sys.stderr, env=env)


def table_block(text, header):
    """The table whose header row starts with `header`, up to a blank line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith(header):
            block = []
            for row in lines[i:]:
                if not row.strip():
                    break
                block.append(row)
            return block
    return None


def output_of(cmd):
    return subprocess.run(cmd, check=False, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S).stdout


def fidelity(build_dir):
    """Compare the composed workloads with the shipped paths at the paper
    seeds. Cached per build: the result only changes when a binary does."""
    binaries = [os.path.join(build_dir, b) for b in ("perfbench", *SHIPPED)]
    key = hashlib.sha256()
    for b in binaries:
        with open(b, "rb") as f:
            key.update(f.read())
    cache = os.path.join(build_dir, "fidelity.json")
    if os.path.exists(cache):
        with open(cache) as f:
            cached = json.load(f)
        if cached.get("key") == key.hexdigest():
            return cached
    composed = output_of([binaries[0], "--fidelity"])
    s1 = output_of([binaries[1]])
    c16 = output_of([binaries[2]])
    problems = []
    if table_block(composed, "metric") != table_block(s1, "metric") or \
            table_block(s1, "metric") is None:
        problems.append("center_shift differs from bench_s1_center_day")
    if table_block(composed, "scenario") != table_block(c16, "scenario") or \
            table_block(c16, "scenario") is None:
        problems.append("interference differs from bench_c16_interference")
    if "churn fidelity: match" not in composed:
        problems.append("metadata_churn differs from tools::run_churn")
    result = {"key": key.hexdigest(), "ok": not problems, "problems": problems,
              "composed": composed}
    with open(cache, "w") as f:
        json.dump(result, f)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["center_shift", "interference", "metadata_churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build(build_dir)
        fid = fidelity(build_dir)

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    print(f"  fidelity at the paper seeds: {'match' if fid['ok'] else 'MISMATCH'}")
    for problem in fid["problems"]:
        print(f"  problem: {problem}")
    result["correct"] = bool(result["correct"] and fid["ok"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError) as e:
        log(f"cannot run: {e}")
        sys.exit(1)
