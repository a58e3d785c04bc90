"""Launching the program's CLI, timing its set-up, reading its memory, and
stopping every process it started.

Programs are launched with their required arguments only (plus
``--port 0`` so runs never collide on a port), so deleting a tuning flag
from the CLI never breaks the benchmark.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_URL = re.compile(rb"http://([0-9.]+):(\d+)")
#: The ready line of ``repro replica``.
REPLICA_READY = re.compile(rb"replica listening on ([0-9.]+):(\d+)")

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0


class Program:
    """One launched ``python -m repro.cli`` process in its own session, so
    its children (replicas) can be found and stopped with it."""

    def __init__(self, repo_root: Path, args: list[str], log_path: Path) -> None:
        self.args = args
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=repo_root,
            env=program_env(repo_root),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, pattern: re.Pattern = _URL) -> tuple[str, int]:
        """Read stdout until the ready line; return ``(host, port)``.

        Only the ready line is read: the programs print nothing else
        until they exit, so the pipe cannot fill."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            match = pattern.search(line)
            if match:
                return match.group(1).decode("ascii"), int(match.group(2))
        raise RuntimeError(
            f"`repro {' '.join(self.args)}` never printed its ready line "
            f"(exit code {self.process.poll()})"
        )

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of this process and every
        descendant, in MiB."""
        return sum(_status_kb(pid, "VmHWM:") for pid in [self.pid, *descendants(self.pid)]) / 1024

    def rss_mb(self) -> float:
        """Summed resident set (VmRSS) of this process and every
        descendant now, in MiB."""
        return sum(_status_kb(pid, "VmRSS:") for pid in [self.pid, *descendants(self.pid)]) / 1024

    def stop(self) -> None:
        """SIGTERM the program (it drains and reaps its replicas), then
        make sure nothing of its session is left running."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    _kill_group(self.pid)
                    self.process.wait(STOP_TIMEOUT_S)
            _kill_group(self.pid)
            _wait_group_gone(self.pid)
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()
            self._log.close()


def run_cli(repo_root: Path, args: list[str], log_path: Path, timeout: float) -> float:
    """Run ``repro <args>`` to completion; return its wall time in seconds.
    Raises ``RuntimeError`` on a non-zero exit or after ``timeout``.

    The wait blocks until the exit (a timer enforces the timeout), so the
    time is not rounded up to a polling step."""
    started = time.perf_counter()
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            cwd=repo_root,
            env=program_env(repo_root),
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            start_new_session=True,
        )
        timer = threading.Timer(timeout, _kill_group, (process.pid,))
        timer.start()
        try:
            returncode = process.wait()
        finally:
            timer.cancel()
    elapsed = time.perf_counter() - started
    if returncode != 0:
        late = " (timed out)" if elapsed >= timeout else ""
        raise RuntimeError(f"`repro {' '.join(args)}` exited {returncode}{late}")
    return elapsed


def program_env(repo_root: Path) -> dict[str, str]:
    """The environment for the program: this checkout's ``src`` first on
    ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(repo_root / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (by scanning ``/proc``)."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat_fields(int(entry))
            if stat is not None:
                parents[int(entry)] = int(stat[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child, parent in parents.items():
            if parent == current:
                found.append(child)
                frontier.append(child)
    return found


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state, ppid,
    pgrp, ...), or ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    return raw[raw.rfind(")") + 2 :].split()


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _group_members(pgid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat_fields(int(entry))
            if stat is not None and int(stat[2]) == pgid and stat[0] != "Z":
                members.append(int(entry))
    return members


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_group_gone(pgid: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)
