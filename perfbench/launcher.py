"""Spawn child interpreters from a small process and time them.

A child started by vfork or fork inherits its parent's resident-memory
high-water mark at exec, so a child of the benchmark process (numpy and
phdinfluence loaded) would report at least the benchmark's own peak.  The
benchmark therefore starts this module once as a lightweight server that
loads neither, and sends it one JSON line per child to run; each reply
carries the child's exit code, wall time, peak RSS from wait4, and the tail
of its standard error.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time


class Launcher:
    """Client end: owns the server process and stops it on close()."""

    def __init__(self, env: dict, cwd: str, scratch: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), scratch],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
        )

    def run(self, argv: list[str]) -> dict:
        """Run argv to completion; returns code, seconds, maxrss_kb, stderr."""
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def serve(scratch: str) -> None:
    """Run each argv read from stdin; child stderr goes to a file in scratch."""
    for line in sys.stdin:
        argv = json.loads(line)
        with tempfile.TemporaryFile(dir=scratch) as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
            seconds = time.perf_counter() - t0
            child.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()[-2000:].decode("utf-8", "replace")
        reply = {"code": child.returncode, "seconds": seconds,
                 "maxrss_kb": usage.ru_maxrss, "stderr": stderr}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
