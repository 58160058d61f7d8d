"""Run one child process to completion, timed without polling.

subprocess's own timeouts poll with sleeps of up to 50 ms, which would
quantise every measured child. Here the parent blocks in wait4, which also
yields the child's own peak RSS, and a timer kills a child that overruns.
"""
from __future__ import annotations

import os
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildRun:
    code: int
    maxrss_kib: int
    spawn_ns: int  # time.monotonic_ns() just before the spawn
    elapsed_ns: int
    stdout: bytes


def run_child(argv: list, env: dict, timeout: float, stderr=subprocess.DEVNULL,
              capture: bool = False, cwd=None) -> ChildRun:
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            stderr=stderr, env=env, cwd=cwd)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if proc.stdout is not None:
            proc.stdout.close()
    elapsed = time.monotonic_ns() - spawn_ns
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, usage.ru_maxrss, spawn_ns, elapsed, out)
