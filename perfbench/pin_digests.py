#!/usr/bin/env python3
"""Pin the report digest of each workload and seed into digests.json.

    python3 perfbench/pin_digests.py --seeds 0-39 [--workload campus]

Every benchmark run renders the 8-pass report over its captured trace;
run.py counts a failed operation when that text's digest differs from the
one pinned here for the same workload and seed.  Re-pin only when a change
is meant to alter the report, and say so in its CHANGES entry.
"""

import argparse
import json
import os

import run

DIGESTS = os.path.join(run.HERE, "digests.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-39 or 0,3,5-9")
    ap.add_argument("--workload", action="append",
                    help="default: every workload in BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    workloads = args.workload or names
    build_root = os.path.join(
        run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(build_root)
    with open(DIGESTS) as f:
        pinned = json.load(f)
    for wl in workloads:
        for seed in parse_seeds(args.seeds):
            work = os.path.join(build_root, "work", f"pin-{wl}-{seed}")
            rc, out = run.run_cmd(
                [binary, "--workload", wl, "--seed", str(seed), "--seconds",
                 "0", "--trace", "0", "--digest-only", "--work-dir", work],
                run.RUN_TIMEOUT_S)
            res = json.loads(out.strip().split("\n")[-1]) if rc == 0 else {}
            if rc != 0 or res.get("failed"):
                run.fail(f"{wl} seed {seed}: set-up failed its oracles")
            pinned.setdefault(wl, {})[str(seed)] = res["report_digest"]
            print(f"{wl} {seed} {res['report_digest']}", flush=True)
            with open(DIGESTS, "w") as f:
                json.dump(pinned, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
