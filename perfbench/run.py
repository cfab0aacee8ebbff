#!/usr/bin/env python3
"""Build and run the perfbench driver for one workload.

    python3 perfbench/run.py --workload kv-zipf-read --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver and the store's libraries are
compiled from this checkout's sources into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) on first use. Everything the driver prints
is forwarded; its last line, one JSON object with the keys correct,
attempted, failed and metrics, is checked against BENCHMARK.json and
printed last. Any failure exits non-zero without printing a result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv-zipf-read", "net-zipf-read", "net-write-1k")
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """The commit when this is a git checkout, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("store sources (src/) not found next to perfbench/; nothing to build", 2)
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=log)
        if r.returncode != 0:
            die("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "--target",
                        "perfbench_driver", "-j", jobs], stdout=log, stderr=log)
    if r.returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be within 1..60", 2)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", trace_dir, "--commit", source_stamp()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if r.returncode != 0:
        die(f"driver exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("driver result has unexpected keys")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die(f"driver metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
