#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload mem-mix --seed 1 --seconds 10 --trace 0

Builds the Go benchmark in perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into .bench_build/,
runs it with a fresh store temp root under .bench_build/ that is removed
afterwards, and passes its standard output through: the last line is
the JSON result. Every file the build and the run write stays under
.bench_build/ in the repository root. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def go_env():
    """The environment for the go tool: caches and config inside OUT, no
    network, no toolchain download, no cgo."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(OUT, "gocache"),
        GOMODCACHE=os.path.join(OUT, "gomodcache"),
        GOPATH=os.path.join(OUT, "gopath"),
        GOTMPDIR=os.path.join(OUT, "gotmp"),
        XDG_CONFIG_HOME=os.path.join(OUT, "config"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    for d in ("gotmp", "config", "tmp"):
        os.makedirs(os.path.join(OUT, d), exist_ok=True)
    env["TMPDIR"] = os.path.join(OUT, "tmp")
    return env


def run(cmd, env, timeout, **kw):
    """Run cmd, killing it (and waiting for it) if it overruns."""
    p = subprocess.Popen(cmd, env=env, **kw)
    try:
        return p.wait(timeout=timeout)
    except BaseException:
        p.kill()
        p.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; nothing to benchmark", file=sys.stderr)
        return 1
    env = go_env()
    binary = os.path.join(OUT, "perfbench")
    try:
        code = run(["go", "build", "-o", binary, "."], env, BUILD_TIMEOUT_S,
                   cwd=SRC, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: build failed with exit code {code}", file=sys.stderr)
        return 1

    tmp = tempfile.mkdtemp(prefix="stores-", dir=os.path.join(OUT, "tmp"))
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-tmp", tmp]
    if args.trace == 1:
        cmd += ["-spans", os.path.join(OUT, f"spans-{args.workload}.jsonl")]
    try:
        code = run(cmd, env, RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
