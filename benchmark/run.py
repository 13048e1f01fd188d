#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Driver form (one workload, one process, result object on the last line):

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Convenience forms:

    python3 benchmark/run.py --all [--seed N] [--seconds S] [--runs K] [--out DIR]
    python3 benchmark/run.py --compare <dir A> <dir B>

The script only builds (release, offline) and dispatches: `--trace 0` goes to
the end-to-end binary `vbench`, `--trace 1` to `vbench_layers`.  The two are
built separately, so a change to the layer functions the probes call cannot
stop the end-to-end numbers from being produced.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["planner_bound", "adhoc_mix", "dashboard_wire", "stream_refresh"]


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def tool_output(argv):
    try:
        done = subprocess.run(argv, capture_output=True, text=True, cwd=HERE, timeout=20)
        return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def child_env():
    env = dict(os.environ)
    env["VBENCH_RUSTC"] = tool_output(["rustc", "--version"])
    env["VBENCH_COMMIT"] = tool_output(["git", "rev-parse", "HEAD"])
    return env


def build(binary):
    """Builds one binary in release mode; cargo's own output goes to stderr."""
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST, "--bin", binary],
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"building {binary} failed")
    return os.path.join(target_dir(), "release", binary)


def run_one(argv, env):
    trace = "0"
    if "--trace" in argv:
        trace = argv[argv.index("--trace") + 1]
    binary = build("vbench_layers" if trace == "1" else "vbench")
    if "--out" not in argv:
        argv = argv + ["--out", os.path.join(HERE, "out")]
    return subprocess.run([binary] + argv, env=env).returncode


def take(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        value = argv[i + 1]
        del argv[i : i + 2]
        return value
    return default


def main():
    argv = sys.argv[1:]
    env = child_env()
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py --compare <dir A> <dir B>")
        binary = build("vbench")
        benchmark_json = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        return subprocess.run([binary, "compare", argv[1], argv[2], benchmark_json], env=env).returncode
    if argv[:1] == ["--all"]:
        rest = argv[1:]
        runs = int(take(rest, "--runs", "1"))
        worst = 0
        for _ in range(runs):
            for workload in WORKLOADS:
                for trace in ("0", "1"):
                    code = run_one(["--workload", workload, "--trace", trace] + rest, env)
                    worst = max(worst, code)
        return worst
    return run_one(argv, env)


if __name__ == "__main__":
    sys.exit(main())
