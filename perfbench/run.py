#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload solve-corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  --workload is one of solve-corpus,
serve-zipf, match-scan, or "all" (the three in turn, untraced only).
--trace 1 makes one traced run over the inputs of all three workloads.
The last line of stdout is the result object; lines before it starting
with '#' are information (host, commit, OCaml version, per-workload
counts and figures).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["solve-corpus", "serve-zipf", "match-scan"]
EXE = os.path.join("_build", "default", "perfbench", "sbdbench.exe")
SERVER = os.path.join("_build", "default", "bin", "sbdserve.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def commit():
    """The git commit if this is a repository, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == os.path.realpath("."):
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "sbdserve.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("not the root of a checkout of the program: %s is missing" % need)
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/sbdbench.exe", "./bin/sbdserve.exe"]
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if res.returncode != 0:
        fail("build failed (dune exit %d)" % res.returncode)


def run_one(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--sbdserve", SERVER]
    if trace:
        cmd += ["--trace-out", os.path.join("perfbench", "_out", "trace-%s-%d.tsv" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line
            else:
                print(line, flush=True)
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or last is None:
        fail("%s exited with code %d" % (workload, code))
    return json.loads(last)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload == "all" and args.trace:
        ap.error("--workload all is for untraced runs; a traced run covers every workload")

    build()
    print("# host nproc=%d commit=%s" % (os.cpu_count() or 0, commit()), flush=True)
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)), flush=True)
        return
    results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    for w, r in results.items():
        print("# %s %s" % (w, json.dumps(r)), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (w, k): v for w, r in results.items() for k, v in r["metrics"].items()},
    }), flush=True)


if __name__ == "__main__":
    main()
