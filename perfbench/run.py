#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload campus --seed 0 --seconds 12 --trace 0

Builds `nfsbench` from this checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, adds the pinned
report-digest oracle and provenance, writes the full result to
<build dir>/results/, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1).  Exits non-zero without that line if the build, the
run or the result's shape fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run_cmd(cmd, timeout, log=None):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it.  Returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if log else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if log:
        with open(log, "w") as f:
            f.write(out)
    return proc.returncode, out


def build(build_root):
    tree = os.path.join(build_root, "nfsbench")
    log = os.path.join(build_root, "build.log")
    os.makedirs(tree, exist_ok=True)
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", tree,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        rc, out = run_cmd(cfg, BUILD_TIMEOUT_S, log)
        if rc != 0:
            shutil.rmtree(tree, ignore_errors=True)
            fail("configure failed:\n" + out[-3000:])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    rc, out = run_cmd(["cmake", "--build", tree, "--target", "nfsbench",
                       "-j", jobs], BUILD_TIMEOUT_S, log)
    if rc != 0:
        fail("build failed:\n" + out[-3000:])
    return os.path.join(tree, "nfsbench")


def git_commit():
    # Only this checkout's own repository counts, not one enclosing it.
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        top, commit = (out.stdout.split() + ["", ""])[:2]
        if out.returncode == 0 and os.path.realpath(top) == \
                os.path.realpath(ROOT):
            return commit
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()
    start = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    built = time.monotonic()

    work = os.path.join(build_root, "work",
                        f"{args.workload}-{args.seed}-{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.smoke:
        cmd.append("--smoke")
    rc, out = run_cmd(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if rc != 0:
        fail(f"nfsbench exited with {rc}")
    res = json.loads(lines[-1])

    # The pinned-digest oracle: the report over this workload and seed
    # must render exactly the text it rendered when the digest was pinned.
    attempted, failed = res["attempted"], res["failed"]
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f).get(args.workload, {}).get(str(args.seed))
    if pinned is not None and not args.smoke:
        attempted += 1
        if pinned != res["report_digest"]:
            failed += 1
            print(f"ORACLE FAILED: report digest {res['report_digest']} "
                  f"!= pinned {pinned}")

    metrics = res["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        fail(f"metric names differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(names))}")
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {metrics[m['name']]['unit']} "
                 f"!= {m['unit']}")

    provenance = dict(res["provenance"])
    provenance.update({
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "report_digest": res["report_digest"],
        "digest_pinned": pinned is not None,
        "build_s": round(built - start, 3),
        "wall_s": round(time.monotonic() - start, 3),
    })
    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "attempted": attempted,
                   "failed": failed, "metrics": metrics,
                   "samples_s": res["samples_s"]}, f, indent=1)
    print("provenance: " + json.dumps(provenance))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
