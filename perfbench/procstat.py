"""CPU time and peak memory of another process, read from ``/proc/<pid>``."""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time the process has used so far."""
    with open(f"/proc/{pid}/stat") as f:
        text = f.read()
    # the command name may contain spaces; fields resume after its ")"
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """The process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
