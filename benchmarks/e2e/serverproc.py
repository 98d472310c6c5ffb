"""The served process of the HTTP workloads: start, probe, measure, kill.

The database never lives in the load generator: a durable workload runs
``python -m repro serve --data-dir ...`` on a directory the benchmark
populated; an in-memory workload runs ``serve_inmemory.py`` (next to this
file), which loads the generated dataset into a ``Database`` and serves it
through the public ``repro.server.endpoint.OntoAccessEndpoint``.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import subprocess
import sys
import time
from typing import List, Optional

from repro.errors import ReproError
from repro.server.client import OntoAccessClient, RetryPolicy

__all__ = ["ServerProcess", "peak_rss_mb"]

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
_URL = re.compile(r"endpoint at (http://\S+)")
#: longest a server may take from exec to answering /ready
START_TIMEOUT = 120.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, this one by default."""
    with open(f"/proc/{pid or os.getpid()}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


class ServerProcess:
    """One server subprocess; always reaped by :meth:`kill`."""

    def __init__(self, argv: List[str], stderr_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self._stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            text=True,
        )
        self.url: Optional[str] = None

    @classmethod
    def serve_data_dir(
        cls, data_dir: str, stderr_path: str, access_log: Optional[str] = None
    ) -> "ServerProcess":
        argv = [
            "-m", "repro", "serve", "--port", "0",
            "--data-dir", data_dir, "--sync-mode", "fsync",
        ]
        if access_log:
            argv += ["--access-log", access_log]
        return cls(argv, stderr_path)

    @classmethod
    def serve_inmemory(
        cls, dataset_path: str, stderr_path: str,
        access_log: Optional[str] = None,
    ) -> "ServerProcess":
        argv = [str(HERE / "serve_inmemory.py"), "--dataset", dataset_path]
        if access_log:
            argv += ["--access-log", access_log]
        return cls(argv, stderr_path)

    def wait_ready(self, probe_query: str) -> None:
        """Block until ``/ready`` answers 200 and one probe query succeeds."""
        deadline = time.monotonic() + START_TIMEOUT
        while self.url is None:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before announcing "
                    "its address"
                )
            match = _URL.search(line)
            if match:
                self.url = match.group(1)
        with OntoAccessClient(
            self.url, retry=RetryPolicy(max_attempts=1)
        ) as client:
            while True:
                try:
                    ready, _ = client.ready()
                    if ready:
                        client.query_json(probe_query)
                        return
                except ReproError:
                    pass  # not accepting connections yet
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server did not become ready")
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
