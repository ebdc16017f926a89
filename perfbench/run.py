#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the compiler and the benchmark
driver from source with dune, in a workspace of the benchmark's own
(.perfbench/ws), runs one workload, and prints the result object as the
last line of standard output.  Everything the run writes stays under
.perfbench/ in the checkout; the run's own scratch directory is removed at
the end.

Exact-count companions (see README.md) are remembered per build, workload
and seed in .perfbench/counts.json; a run whose counts differ from an
earlier run of the same build and seed is reported as not correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["cli-oneshot", "analyze-large", "serve-session", "simulate-long"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKSPACE = os.path.join(".perfbench", "ws")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def make_workspace(root):
    """Lay out the benchmark's own dune workspace under .perfbench/ws.

    It holds perfbench/dune-project, a fresh copy of the compiler's lib/ and
    bin/ (so the driver may link their private libraries), and the driver's
    sources with perfbench/bench.dune as their build file.  Dune tells
    changed files by content, so the copy rebuilds only what changed.
    """
    here = os.path.join(root, "perfbench")
    ws = os.path.join(root, WORKSPACE)
    sources = ["bench.ml", "gen.ml", "measure.ml", "calibrate.ml", "clock_stubs.c"]
    needed = ["lib", "bin"] + \
        [os.path.join("perfbench", f) for f in sources + ["dune-project", "bench.dune"]]
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        fail("not a checkout of the compiler: missing " + ", ".join(missing))
    for d in ("lib", "bin", "perfbench"):
        shutil.rmtree(os.path.join(ws, d), ignore_errors=True)
    for d in ("lib", "bin"):
        shutil.copytree(os.path.join(root, d), os.path.join(ws, d))
    os.makedirs(os.path.join(ws, "perfbench"))
    for f in sources:
        shutil.copy2(os.path.join(here, f), os.path.join(ws, "perfbench", f))
    shutil.copy2(os.path.join(here, "bench.dune"), os.path.join(ws, "perfbench", "dune"))
    shutil.copy2(os.path.join(here, "dune-project"), os.path.join(ws, "dune-project"))
    return WORKSPACE


def build(root):
    ws = make_workspace(root)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe",
           "./perfbench/calibrate.exe", "./bin/vhdlc.exe"]
    try:
        proc = subprocess.run(cmd, cwd=os.path.join(root, ws), env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed (dune exit %d)" % proc.returncode)
    exes = [os.path.join(ws, "_build", "default", "perfbench", "bench.exe"),
            os.path.join(ws, "_build", "default", "bin", "vhdlc.exe"),
            os.path.join(ws, "_build", "default", "perfbench", "calibrate.exe")]
    for exe in exes:
        if not os.path.isfile(os.path.join(root, exe)):
            fail("build produced no " + exe)
    return exes


def fingerprint(root, exes):
    h = hashlib.sha256()
    for exe in exes:
        with open(os.path.join(root, exe), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_driver(root, bench_exe, vhdlc_exe, args, scratch):
    cmd = [os.path.join(".", bench_exe),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--vhdlc", os.path.join(".", vhdlc_exe), "--scratch", scratch]
    # its own session, so a timeout can take down the daemon it started too
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True, text=True)

    def on_term(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # reap anything the driver left behind in its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if proc.returncode != 0:
        fail("the driver exited with %d" % proc.returncode)
    return out


def compare_counts(state_path, key, counts):
    """True unless an earlier run of the same build and seed counted differently."""
    state = {}
    if os.path.exists(state_path):
        with open(state_path) as f:
            state = json.load(f)
    earlier = state.get(key)
    if earlier is not None and earlier != counts:
        diff = {k: (earlier.get(k), counts.get(k))
                for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k)}
        print("perfbench: exact counts differ from an earlier run of %s: %s"
              % (key, diff), file=sys.stderr)
        return False
    state[key] = counts
    with open(state_path + ".tmp", "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(state_path + ".tmp", state_path)
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exes = build(root)
    state_dir = os.path.join(root, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    # relative to the root, to keep the daemon's socket path short; of fixed
    # length, so the compiler's allocation counts do not depend on the pid
    scratch = os.path.join(".perfbench", "run-%08d" % os.getpid())
    shutil.rmtree(os.path.join(root, scratch), ignore_errors=True)
    os.makedirs(os.path.join(root, scratch))
    try:
        out = run_driver(root, exes[0], exes[1], args, scratch)
    finally:
        shutil.rmtree(os.path.join(root, scratch), ignore_errors=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the driver printed no result")
    for l in lines[:-1]:
        print(l)
    result = json.loads(lines[-1])
    counts = next((json.loads(l)["counts"] for l in lines[:-1]
                   if l.startswith('{"counts"')), None)
    # a run that already failed (a daemon that died early, say) may have
    # counted a shorter prefix; it must not become the reference
    if counts is not None and result["correct"]:
        key = "%s/%s/%d" % (fingerprint(root, exes), args.workload, args.seed)
        if not compare_counts(os.path.join(state_dir, "counts.json"), key, counts):
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
