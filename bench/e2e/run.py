#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark (the BENCHMARK.json command).

    python3 bench/e2e/run.py --workload lookup --seed 3 --seconds 10 --trace 0

Run from the repository root.  Builds the xseq CLI and bench/e2e/xbench.exe
with dune, then runs xbench with the same arguments; xbench's last line of
stdout is the JSON result.  Without a workload every workload runs.  Exits
non-zero, printing no result, when the sources or the toolchain are missing.
Everything it writes stays under the checkout: _build/, bench/e2e/results/
and bench/e2e/work/ (temporary, removed on exit).
"""

import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["bin/xseq_cli.exe", "bench/e2e/xbench.exe"]
WORK = os.path.join("bench", "e2e", "work")


def run(cmd, env, **kwargs):
    """Runs cmd to completion, passing SIGTERM/SIGINT on to it."""
    child = subprocess.Popen(cmd, env=env, **kwargs)
    forward = lambda sig, _frame: child.send_signal(sig)
    previous = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)


def main():
    for needed in ("dune-project", "bin/xseq_cli.ml", "bench/e2e/xbench.ml"):
        if not os.path.exists(needed):
            sys.stderr.write(
                "run.py: %s not found; run from the root of an xseq checkout\n" % needed
            )
            return 2
    # The compiler's temporary files go under the checkout too.
    tmp = os.path.abspath(os.path.join(WORK, "tmp-%d" % os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        try:
            # dune reports on stderr; stdout stays for the result line.  The
            # shared build cache lives outside the checkout, so it is off.
            built = run(
                ["dune", "build", "--root", ".", "--cache=disabled"] + TARGETS,
                env,
                stdout=sys.stderr,
            )
        except OSError as e:
            sys.stderr.write("run.py: cannot run dune: %s\n" % e)
            return 2
        if built != 0:
            sys.stderr.write("run.py: build failed\n")
            return 2
        exe = os.path.join("_build", "default", "bench", "e2e", "xbench.exe")
        xseq = os.path.join("_build", "default", "bin", "xseq_cli.exe")
        return run([exe, "--xseq", xseq] + sys.argv[1:], env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
