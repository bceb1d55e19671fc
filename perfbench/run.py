#!/usr/bin/env python3
"""Build clio_serve and the benchmark client from source, then run one
workload (or all of them).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The last line of stdout is the JSON
result of the (last) run; the exit code is non-zero when the tree cannot be
built or any run fails its checks.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    fail("dune not found on PATH or in an opam switch")


def source_id():
    """The git commit when the tree is a checkout, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def build(dune):
    for need in ("dune-project", "bin/clio_serve.ml", "lib/server/service.ml"):
        if not os.path.exists(need):
            fail(f"{need} is missing: run from the root of a full source tree")
    env = dict(os.environ)
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    res = subprocess.run([dune, "build", "--root", ".", "./bin/clio_serve.exe",
                          "./perfbench/bench.exe"], stdout=sys.stderr, env=env)
    if res.returncode != 0:
        fail("build failed")


def run_one(workload, args, commit):
    cmd = ["_build/default/perfbench/bench.exe", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--server", "_build/default/bin/clio_serve.exe",
           "--commit", commit]
    # No CLIO_* settings leak into the runs: --jobs and --workers stay what
    # the workloads define, for the server and the in-process replays alike.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLIO_")}
    # Own process group, so a hung run takes its servers down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    build(find_dune())
    if args.workload == "all":
        with open("BENCHMARK.json") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    else:
        names = [args.workload]
    commit = source_id()
    status = 0
    for name in names:
        sys.stdout.flush()
        code = run_one(name, args, commit)
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
