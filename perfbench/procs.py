"""Fresh program processes: spawn, time, reap, and record peak memory."""

from __future__ import annotations

import dataclasses
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

#: No single program process may run longer than this (seconds).
PROCESS_TIMEOUT_S = 150.0


@dataclasses.dataclass
class Finished:
    """One program process that has exited."""

    returncode: int
    wall_s: float
    stdout: bytes
    stderr: bytes


class Programs:
    """Runs the program of one checkout in fresh interpreters.

    Every child gets ``PYTHONPATH=<checkout>/src`` and a private cache
    and temp directory; ``REPRO_*`` settings inherited from the caller
    are dropped so the program runs at its defaults.  ``peak_rss_mb``
    is the largest resident set of any process reaped so far
    (``wait4`` reports a child's peak including the descendants it
    waited for, such as serve workers).
    """

    def __init__(self, root: pathlib.Path, work: pathlib.Path) -> None:
        self.root = root
        self.work = work
        self.peak_rss_mb = 0.0
        self._seq = 0
        self._live: "set[subprocess.Popen]" = set()
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        self.base_env = env

    def env(self, cache_dir: "pathlib.Path | None") -> "dict[str, str]":
        env = dict(self.base_env)
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        return env

    def python(self, *args: str) -> "list[str]":
        return [sys.executable, *args]

    def repro(self, *args: str) -> "list[str]":
        return [sys.executable, "-m", "repro", *args]

    def bench_script(self, name: str, *args: str) -> "list[str]":
        here = pathlib.Path(__file__).resolve().parent
        return [sys.executable, str(here / name), *args]

    def spawn(self, argv: "list[str]", cache_dir: "pathlib.Path | None",
              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
              ) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env(cache_dir),
            stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
        )
        self._live.add(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float = PROCESS_TIMEOUT_S,
             record_rss: bool = True) -> "tuple[int, float]":
        """Wait for ``proc`` (killing it after ``timeout``); returns the
        exit code and the process's peak RSS in MiB."""
        timer = threading.Timer(timeout, _kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self._live.discard(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        if record_rss:
            self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        return proc.returncode, rss_mb

    def run(self, argv: "list[str]", cache_dir: "pathlib.Path | None",
            record_rss: bool = True) -> Finished:
        """Run one process to completion, capturing its output."""
        self._seq += 1
        out_path = self.work / f"out-{self._seq}.txt"
        err_path = self.work / f"err-{self._seq}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = self.spawn(argv, cache_dir, stdout=out, stderr=err)
            code, _ = self.reap(proc, record_rss=record_rss)
            wall = time.perf_counter() - start
        finished = Finished(code, wall, out_path.read_bytes(),
                            err_path.read_bytes())
        out_path.unlink()
        err_path.unlink()
        return finished

    def close(self) -> None:
        """Stop and reap every process still running (after an error):
        SIGTERM first, so a server can stop its own workers."""
        for proc in list(self._live):
            try:
                proc.send_signal(signal.SIGTERM)
            except ProcessLookupError:
                pass
            self.reap(proc, timeout=20.0, record_rss=False)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.kill(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop(programs: Programs, proc: subprocess.Popen,
         grace_s: float = 30.0) -> "tuple[int, float]":
    """SIGTERM ``proc`` and reap it (SIGKILL after ``grace_s``)."""
    if proc.returncode is not None:
        return proc.returncode, 0.0
    try:
        proc.send_signal(signal.SIGTERM)
    except ProcessLookupError:
        pass
    return programs.reap(proc, timeout=grace_s)


def alive(proc: subprocess.Popen) -> bool:
    """True while ``proc`` has not exited (never reaps it)."""
    try:
        exited = os.waitid(
            os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
        )
    except ChildProcessError:
        return False
    return exited is None
