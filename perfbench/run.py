#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 45 --trace 0

The Go build cache, the binary and any temporary files go under the
build directory (CARGO_TARGET_DIR when set, else .bench_build) inside the
checkout. The workload runs in a fresh process with GOMAXPROCS pinned to
the number of CPUs this process may run on. The program's last line of
standard output is the JSON result; build output goes to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-cold", "plan-large")
# A run measures for --seconds plus set-up and verification; anything
# past this is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from a full checkout" % ROOT)

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", "config"),
        "XDG_CACHE_HOME": os.path.join(build, "home", "cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOTMPDIR", "HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if built.returncode != 0:
        sys.exit("perfbench: build failed with exit code %d" % built.returncode)

    nproc = len(os.sched_getaffinity(0))
    env["GOMAXPROCS"] = str(nproc)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    # A caller that stops this script stops the workload with it.
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(code)


if __name__ == "__main__":
    main()
