#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bbcbench.exe and the server binary bin/bbc_cli.exe with
dune (the build log goes to stderr), then runs bbcbench with the same
arguments.  Its standard output passes through unchanged; the last line
is the result object described in perfbench/README.md.  Everything the
run writes stays inside the checkout: dune's shared cache is switched off
and scratch files live under perfbench/_work/.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        return fail("run from the root of a bbc checkout (dune-project, lib/ and bin/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bbcbench.exe", "./bin/bbc_cli.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return fail("build failed", build.returncode)
    exe = os.path.join("_build", "default", "perfbench", "bbcbench.exe")
    # A session of its own, so a timeout can stop the benchmark and the
    # server it spawned together.
    proc = subprocess.Popen([exe] + argv, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"no result within {RUN_TIMEOUT_S} s", 124)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGTERM)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
