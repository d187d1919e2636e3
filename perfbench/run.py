#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the real-UDP stack.

Usage (from the repository root):

    python3 perfbench/run.py --workload causal-rounds --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload and relays its output; the last line of standard output is the
result JSON. Build output goes to standard error.

--trace 1 runs the traced variant. Its digest cross-check needs the
untraced stable-digest chain of the same seed; when none is on record, a
short untraced run of that seed produces it first.

--check-history (kv-sessions only) is the untimed oracle mode: the run
records every replica's history and cbc_check --kv-replicas verifies it.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench/run.py: " + message, file=sys.stderr, flush=True)


def build(targets):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    generated = [os.path.join(build_dir, name)
                 for name in ("build.ninja", "Makefile")]
    if not any(os.path.exists(path) for path in generated):
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            log("configure failed")
            return None
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.call(command, stdout=sys.stderr) != 0:
        log("build failed")
        return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["causal-rounds", "total-rounds",
                                 "kv-sessions"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-history", action="store_true")
    args = parser.parse_args()
    if args.check_history and (args.trace or args.workload != "kv-sessions"):
        parser.error("--check-history applies to untraced kv-sessions only")

    targets = ["perfbench"] + (["cbc_check_cli"] if args.check_history else [])
    build_dir = build(targets)
    if build_dir is None:
        return 1
    binary = os.path.join(build_dir, "perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", OUT_DIR]

    chain = os.path.join(OUT_DIR, "digests-%s-seed%d.txt"
                         % (args.workload, args.seed))
    if args.trace and not os.path.exists(chain):
        log("no untraced digest chain for this seed; recording one")
        if subprocess.call([binary] + common + ["--seconds", "2",
                                                "--trace", "0"],
                           stdout=subprocess.DEVNULL,
                           timeout=RUN_TIMEOUT_S) != 0:
            log("untraced reference run failed")
            return 1

    command = [binary] + common + ["--seconds", repr(args.seconds),
                                   "--trace", str(args.trace)]
    if args.check_history:
        for old in glob.glob(os.path.join(OUT_DIR, "history-*.bin")):
            os.remove(old)
        command.append("--check-history")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode

    if args.check_history:
        histories = sorted(glob.glob(os.path.join(OUT_DIR, "history-*.bin")))
        oracle = [os.path.join(build_dir, "cbc", "check", "cbc_check"),
                  "--kv-replicas", "3", "--site-local", "get"] + histories
        verdict = subprocess.run(oracle, stdout=subprocess.PIPE, text=True)
        sys.stderr.write(verdict.stdout)
        if verdict.returncode != 0:
            log("cbc_check rejected the recorded histories")
            return 1
        log("cbc_check accepted %d replica histories" % len(histories))
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
