#!/usr/bin/env python3
"""Build the visasim benchmark from source and run it.

    python3 perfbench/run.py --workload figs --seed 1 --seconds 25 --trace 0

Run from the repository root. Everything the build and the run write
(Go build cache, binaries, the daemon's store, profiles, span files and
records) goes under .bench_build/ in the root. The last line of standard
output is the result object; see perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    # Keep the toolchain's caches, temp files and config inside the checkout.
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "config"),
                     ("TMPDIR", "tmp")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["GOTOOLCHAIN"] = "local"
    env["PERFBENCH_BUILD"] = BUILD
    env["PERFBENCH_ROOT"] = ROOT

    bindir = os.path.join(BUILD, "bin") + os.sep
    build = subprocess.run(
        ["go", "build", "-o", bindir, ".", "visasim/cmd/visasimd"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(bindir, "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
