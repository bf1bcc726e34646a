#!/usr/bin/env python3
"""Build phomd and the perfbench load generator from this checkout, then
run one benchmark workload.

    python3 perfbench/run.py --workload match-label --seed 1 --seconds 20 --trace 0

Run from the root of the repository. Everything the run writes stays
under the build directory ($CARGO_TARGET_DIR, default .bench_build):
the Go build cache, the two binaries, and one work directory per run
(stores, result.json, spans.jsonl). The last line of standard output is
the JSON result; the exit code is the load generator's.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # one run, after the build, must end within this


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOENV": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "TMPDIR": os.path.join(build, "tmp"),
    })
    for key in ("GOCACHE", "GOPATH", "XDG_CONFIG_HOME", "XDG_CACHE_HOME", "TMPDIR"):
        os.makedirs(env[key], exist_ok=True)

    phomd = os.path.join(build, "phomd")
    loadgen = os.path.join(build, "perfbench")
    for cmd, cwd in (
        (["go", "build", "-p", "2", "-o", phomd, "./cmd/phomd"], root),
        (["go", "build", "-p", "2", "-o", loadgen, "."], os.path.join(root, "perfbench")),
    ):
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    work = os.path.join(build, "runs", "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(work, ignore_errors=True)
    proc = subprocess.Popen(
        [loadgen, "-phomd", phomd, "-work", work,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        cwd=root, env=env, stdout=subprocess.PIPE, start_new_session=True)
    start = time.time()
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    finally:
        # The load generator kills phomd on exit; this catches anything
        # left in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for name in os.listdir(work) if os.path.isdir(work) else ():
        if "store" in name:
            shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    print("perfbench: run took %.1f s" % (time.time() - start), file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
