"""Start, observe and stop one `repro serve` process for the benchmark.

The server runs as a separate process (``python -m repro.cli serve``, or the
traced launcher in ``launch_traced.py``) with ``--port 0``; its port is read
from the ``serving on http://host:port`` line it prints.  Resource figures
come from ``/proc`` and cover the server and every process below it (engine
workers and the multiprocessing resource tracker).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server failed to start or to stop."""


def _children(pid: int) -> list[int]:
    children: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return children
    for task in tasks:
        try:
            text = Path(f"/proc/{pid}/task/{task}/children").read_text()
        except FileNotFoundError:
            continue
        children.extend(int(child) for child in text.split())
    return children


def process_tree(pid: int) -> list[int]:
    """``pid`` and all of its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def _status_kb(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def _cpu_seconds(pid: int) -> float:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return 0.0
    # The command name may hold spaces; the fields after it are fixed.
    fields = text.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def host_cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the host since boot, from ``/proc/stat``."""
    fields = [int(value) for value in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    # user nice system idle iowait irq softirq steal; guest time is in user.
    return sum(fields[:8]), fields[7]


class ServerProcess:
    """One running server: its port, its process tree and its resources."""

    def __init__(self, argv: list[str], workdir: Path, env: dict):
        self.workdir = workdir
        self.log_path = workdir / "server.log"
        self._log = self.log_path.open("wb")
        self._known: dict[int, bytes] = {}
        self.launched_at = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = self.launched_at + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_bytes().splitlines():
                if line.startswith(b"serving on http://"):
                    address = line.split()[2].decode()
                    return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise ServerError(f"server did not start; log:\n{self.log_tail()}")

    def log_tail(self, lines: int = 30) -> str:
        return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])

    def tree(self) -> list[int]:
        """The live process tree, remembered so that :meth:`stop` can reap it."""
        pids = process_tree(self.process.pid)
        for pid in pids:
            if pid not in self._known:
                try:
                    self._known[pid] = Path(f"/proc/{pid}/cmdline").read_bytes()
                except FileNotFoundError:
                    pass
        return pids

    def cpu_seconds(self) -> float:
        return sum(_cpu_seconds(pid) for pid in self.tree())

    def rss_mb(self) -> float:
        return sum(_status_kb(pid, "VmRSS") for pid in self.tree()) * 1024 / 1e6

    def peak_rss_mb(self) -> float:
        return sum(_status_kb(pid, "VmHWM") for pid in self.tree()) * 1024 / 1e6

    def stop(self) -> int:
        """Interrupt the server (a clean shutdown) and wait for its whole tree."""
        self.tree()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # Engine workers are daemonic children; if the server died hard they
        # may outlive it.  Reap any remembered process still running the same
        # command line.
        for pid, cmdline in self._known.items():
            if pid == self.process.pid:
                continue
            try:
                if Path(f"/proc/{pid}/cmdline").read_bytes() == cmdline:
                    os.kill(pid, signal.SIGKILL)
            except (FileNotFoundError, ProcessLookupError):
                continue
            _wait_gone(pid)
        self._log.close()
        return self.process.returncode


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while Path(f"/proc/{pid}").exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def serve_argv(
    inputs: dict, workers: int | None, traced_spans: Path | None = None
) -> list[str]:
    """The command line of one server launch on the generated inputs."""
    serve = [
        "serve",
        "--input", str(inputs["csv"]),
        "--metadata", str(inputs["metadata"]),
        "--config", str(inputs["config"]),
        "--model-name", "acs",
        "--port", "0",
        "--journal", "budget.journal",
    ]
    if workers is not None:
        serve += ["--workers", str(workers)]
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", *serve]
    launcher = Path(__file__).resolve().parent / "launch_traced.py"
    return [sys.executable, str(launcher), str(traced_spans), *serve]
