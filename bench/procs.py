"""Child-process lifetime: wait with a deadline and read the child's own
peak RSS from ``os.wait4`` (not this process's high-water mark)."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Tuple


def wait_rusage(proc: subprocess.Popen, timeout_s: float,
                interrupt_first: bool = False) -> Tuple[int, float]:
    """Reap ``proc``; returns ``(exit code, peak RSS in MB)``.

    With ``interrupt_first`` the child gets SIGINT at once (a clean
    shutdown request).  A child still alive at the deadline is killed.
    """
    if interrupt_first:
        proc.send_signal(signal.SIGINT)
    deadline_s = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline_s:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    # Tell Popen the child is reaped so it never waits on the pid again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return proc.returncode, usage.ru_maxrss / 1024.0
