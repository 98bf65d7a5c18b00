#!/usr/bin/env python3
"""Builds `fdrepair` and the perfbench runner from source, then runs one
workload and passes its output through.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Binaries go to `$CARGO_TARGET_DIR`
(default `.bench_build`); inputs and outputs go to `.perfbench_work/`.
The last line of standard output is the JSON result. The exit code is
the runner's, or 1 if a build fails.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    """Builds the release `fdrepair` binary and the runner, offline."""
    for manifest, extra in (
        ("Cargo.toml", ["--bin", "fdrepair"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        command = [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(ROOT, manifest), *extra,
        ]
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def stop_group(pgid):
    """Kills whatever the runner left in its process group and waits
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--fdrepair", os.path.join(release, "fdrepair"),
        "--work", os.path.join(ROOT, ".perfbench_work"),
        *sys.argv[1:],
    ]
    # A session of its own, so that any server the runner leaves behind
    # (it reaps them itself, even on failure) can still be killed here.
    runner = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return runner.wait()
    finally:
        if runner.poll() is None:
            runner.kill()
            runner.wait()
        stop_group(runner.pid)


if __name__ == "__main__":
    sys.exit(main())
