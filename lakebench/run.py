#!/usr/bin/env python3
"""End-to-end lake benchmark: build, then run one workload from a seed.

    python3 lakebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lakebench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
the lakebench package (this directory's CMakeLists.txt, compiled
against ../src) into .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only re-check the build. The benchmark binary does the
measuring and prints one JSON result as its last stdout line; this
script passes its output and exit code through, keeping in the result
exactly the metrics BENCHMARK.json lists for the mode (end_to_end with
--trace 0, per_layer with --trace 1). A listed metric the binary did not
report fails the run. Build output goes to stderr so stdout stays the
benchmark's.

--self-test builds and runs lakebench_selftest (schedule determinism,
percentile math) and the comparator's tests.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lake_search", "cluster_search", "ingest_replicate")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_root():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("lakebench: no library sources at %s; run from the root of "
                 "a full checkout" % (ROOT / "src"))
    out = build_root() / "lakebench"
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr)
    return out


def git_commit():
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + bytes), so
    a result names the code it measured even outside a git checkout.
    Only code and build files count, so saved results and docs in this
    directory leave it unchanged."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if ("__pycache__" in path.parts or
                    path.suffix not in (".cc", ".h", ".py", ".txt")):
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def listed_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def run_binary(cmd, names):
    """Streams the binary's stdout, then prints its result line with the
    metrics restricted to `names`. Returns the exit code."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(RUN_TIMEOUT_S, expire)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
                sys.stdout.flush()
            last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if timed_out.is_set():
        print("lakebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    try:
        result = json.loads(last or "")
        metrics = result["metrics"]
    except (ValueError, KeyError, TypeError):
        if last:
            sys.stdout.write(last)
        print("lakebench: no result line", file=sys.stderr)
        return proc.returncode or 1
    missing = [n for n in names if n not in metrics]
    if missing:
        print("lakebench: result lacks %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    result["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(result))
    return proc.returncode


def self_test():
    out = build(["lakebench_selftest"])
    subprocess.run([str(out / "lakebench_selftest")], check=True)
    subprocess.run([sys.executable, "-m", "unittest", "-q", "test_compare"],
                   cwd=str(HERE), check=True,
                   env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.self_test:
        parser.error("--workload is required")
    try:
        if args.self_test:
            return self_test()
        out = build(["lakebench"])
    except subprocess.CalledProcessError as err:
        print("lakebench: %s failed with exit code %d" %
              (" ".join(err.cmd[:2]), err.returncode), file=sys.stderr)
        return 1
    cmd = [str(out / "lakebench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", str(build_root() / "run"),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    return run_binary(cmd, listed_metrics(args.trace))


if __name__ == "__main__":
    sys.exit(main())
