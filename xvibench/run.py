#!/usr/bin/env python3
"""Build xvi and the benchmark driver from this checkout, run one workload.

Usage (from the root of a checkout):

    python3 xvibench/run.py --workload lookup --seed 1 --seconds 10 --trace 0
    python3 xvibench/run.py --report        # stacked per-layer breakdowns

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  Everything the run writes
goes under xvibench/out/ (untracked).  See xvibench/README.md.
"""

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("xvibench", "out")
XVI = os.path.join("_build", "default", "bin", "xvi.exe")
DRIVER = os.path.join("_build", "default", "xvibench", "xvibench.exe")
# a run's time limit: this allowance for set-up, the checks after the
# measured time and the traced run's in-process replay, plus twice --seconds
RUN_ALLOWANCE_S = 120
BUILD_TIMEOUT_S = 840


def die(msg, code=2):
    print("xvibench: " + msg, file=sys.stderr)
    sys.exit(code)


def git(*args):
    try:
        r = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def fs_type(path):
    """File-system type of the mount holding path (fsync on tmpfs is free)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mnt = fields[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, kind = mnt, fields[2]
    except OSError:
        pass
    return kind


def provenance_env():
    env = dict(os.environ)
    env["XVIBENCH_FS"] = fs_type(ROOT)
    if env["XVIBENCH_FS"] in ("tmpfs", "ramfs"):
        print("xvibench: warning: the checkout is on %s, so fsync costs nothing" % env["XVIBENCH_FS"], file=sys.stderr)
    rev = git("rev-parse", "HEAD")
    if rev is None:
        env["XVIBENCH_GIT_REV"] = "none (not a git checkout)"
        env["XVIBENCH_GIT_DIRTY"] = "unknown"
    else:
        status = git("status", "--porcelain", "--untracked-files=no")
        env["XVIBENCH_GIT_REV"] = rev
        env["XVIBENCH_GIT_DIRTY"] = "yes" if status else "no"
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isfile(os.path.join(ROOT, "bin", "xvi.ml"))):
        die("run from a full checkout of the xvi sources: no dune-project or bin/xvi.ml next to xvibench/")
    # no shared build cache: everything the build writes stays in the checkout
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(ROOT, OUT, "xdg-cache"))
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./bin/xvi.exe", "./xvibench/xvibench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        die("cannot run dune: %s" % e)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if r.returncode != 0:
        die("build failed", 1)


def reap_group(child):
    """SIGKILL the driver's process group, reap the driver, and wait until the
    rest of the group (servers it started, reparented once it is gone) has ended."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    for _ in range(500):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(args, extra):
    build()
    cmd = [os.path.join(ROOT, DRIVER), "--xvi", XVI, "--out", OUT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    # its own process group, so servers it starts die with it on any exit path
    child = subprocess.Popen(cmd, cwd=ROOT, env=provenance_env(), stdout=subprocess.PIPE,
                             start_new_session=True, text=True)

    def stop(signum, _frame):
        reap_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    timeout = RUN_ALLOWANCE_S + 2 * args.seconds
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap_group(child)
        die("run exceeded %d s" % timeout, 1)
    reap_group(child)
    if child.returncode != 0:
        sys.stdout.write(out)
        die("driver exited %d" % child.returncode, 1)
    lines = out.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        die("driver printed no result line", 1)
    sys.stdout.write(out)
    sys.stdout.flush()


# --- report ---

def latest_traced():
    found = {}
    for path in glob.glob(os.path.join(ROOT, OUT, "results", "*-trace1-*.json")):
        workload = os.path.basename(path).split("-", 1)[0]
        if workload not in found or os.path.getmtime(path) > os.path.getmtime(found[workload]):
            found[workload] = path
    return found


def report():
    """Each end-to-end figure of the latest traced runs as a stacked per-layer breakdown."""
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet under `| head`
    found = latest_traced()
    if not found:
        die("no traced results under %s/results; run with --trace 1 first" % OUT, 1)
    for workload in ("lookup", "update", "ingest"):
        if workload not in found:
            continue
        with open(found[workload]) as f:
            res = json.load(f)
        prov = res["provenance"]
        print("== %s  (seed %s, xmark x%s, %s nodes, rev %s)" % (
            workload, prov["seed"], prov["xmark_factor"], prov["doc_nodes"], prov["git_rev"][:12]))
        for metric, b in res["breakdowns"].items():
            total = b["total_us"]
            print("  %s = %.1f us%s" % (metric, total, "  (%s)" % b["headline"] if b.get("headline") else ""))
            parts = sorted(b["parts"], key=lambda p: -p["us"])
            top = parts[0]["layer"] if parts else "?"
            for p in b["parts"]:
                share = p["us"] / total if total > 0 else 0.0
                bar = "#" * max(0, int(round(40 * share)))
                mark = "  <- dominant" if p["layer"] == top else ""
                print("    %-26s %12.1f us %6.1f%%  %s%s" % (p["layer"], p["us"], 100 * share, bar, mark))
        print()


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["lookup", "update", "ingest"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, help="XMark factor (self-tests use a small one)")
    p.add_argument("--inject", choices=["none", "wrong-expected", "drop-ack"], help="deliberate defect (self-tests)")
    p.add_argument("--report", action="store_true", help="print the latest traced breakdowns")
    args = p.parse_args()
    if args.report:
        report()
        return
    if args.workload is None:
        die("--workload is required")
    extra = []
    if args.scale is not None:
        extra += ["--scale", str(args.scale)]
    if args.inject is not None:
        extra += ["--inject", args.inject]
    run(args, extra)


if __name__ == "__main__":
    main()
