"""Timed child processes: wall time from spawn to exit, peak RSS, and a timeout.

A child is started with ``posix_spawn`` and its exit is awaited on a pidfd,
so the measured wall time ends the moment the process does, without polling.
The child is reaped with ``os.wait4``, which reports its ``ru_maxrss``.  A
child still running at its timeout is killed through the same pidfd and
reported as timed out.

Linux counts in a child's ``ru_maxrss`` the resident size of the process it
was spawned from, so children are not spawned by the benchmark itself, whose
size grows with its inputs, but by a ``Launcher``: this file run as a small
helper process, started before the benchmark allocates anything, that takes
one request per line on stdin and answers one line on stdout.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 60.0

_ELAPSED = re.compile(r"^elapsed: ([0-9.]+) ms$", re.MULTILINE)


@dataclass
class Call:
    wall_ms: float
    exit_code: int
    maxrss_kb: int
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def elapsed_ms(self) -> float | None:
        """The CLI's own ``elapsed:`` figure from stderr, if it printed one."""
        match = _ELAPSED.search(self.stderr)
        return float(match.group(1)) if match else None


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment, with the checkout's ``src`` as the only import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], out_path: str, err_path: str, timeout_s: float) -> dict:
    """Run ``python <argv>`` with stdout and stderr going to the given files."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    ready: list[int] = []
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout_s)
        wall_ms = (time.perf_counter() - start) * 1000.0
    finally:
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
    return {"wall_ms": wall_ms, "exit_code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss, "timed_out": not ready}


class Launcher:
    """The helper process that spawns every timed child; use it as a context manager."""

    def __init__(self, env: dict[str, str], scratch: Path) -> None:
        self._scratch = scratch
        self._proc = subprocess.Popen(
            [sys.executable, __file__], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv: list[str], timeout_s: float = TIMEOUT_S) -> Call:
        out_path, err_path = self._scratch / "stdout.txt", self._scratch / "stderr.txt"
        request = {"argv": argv, "out": str(out_path), "err": str(err_path), "timeout": timeout_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        return Call(
            **json.loads(reply),
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["out"], request["err"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    _serve()
