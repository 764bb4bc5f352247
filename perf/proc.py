"""Process-tree accounting from ``/proc``: resident set size and CPU
time of the benchmark process *and its children* (mp workers), so work
that a pool hides behind wall-clock still shows.

Same approach as ``benchmarks/_rss.py`` (sample ``statm`` from a
background thread, because ``VmHWM`` is a lifetime high-water mark and
cannot scope a phase), extended to descendants.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, List

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
_TICKS = os.sysconf("SC_CLK_TCK")


def _children_of(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
        except OSError:
            continue
    return out


def tree_pids(root: int = 0) -> List[int]:
    """``root`` (default: this process) and all of its live descendants."""
    root = root or os.getpid()
    seen = [root]
    frontier = [root]
    while frontier:
        nxt: List[int] = []
        for pid in frontier:
            nxt.extend(c for c in _children_of(pid) if c not in seen)
        seen.extend(nxt)
        frontier = nxt
    return seen


def rss_bytes(pids: List[int]) -> int:
    """Summed resident set size of ``pids`` (exited ones count 0)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE_SIZE
        except (OSError, IndexError, ValueError):
            continue
    return total


def cpu_seconds(pids: List[int]) -> Dict[int, float]:
    """user+sys CPU seconds consumed so far by each live pid."""
    out: Dict[int, float] = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                # comm may contain spaces; fields resume after the ')'.
                fields = f.read().rsplit(")", 1)[1].split()
            out[pid] = (int(fields[11]) + int(fields[12])) / _TICKS
        except (OSError, IndexError, ValueError):
            continue
    return out


def _reap(signum: int, spare: int, grace_s: float) -> bool:
    """Signal every descendant except ``spare`` and wait for them; True
    once none is left."""
    me = os.getpid()
    deadline = time.monotonic() + grace_s
    while True:
        kids = [p for p in tree_pids() if p not in (me, spare)]
        if not kids:
            return True
        for pid in kids:
            try:
                os.kill(pid, signum)
            except OSError:
                pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except OSError:  # not ours to wait for, or already reaped
                pass
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)


def stop_children(grace_s: float = 3.0) -> None:
    """Stop every process this one started and wait until each has
    ended: the benchmark leaves nothing behind, on any path out.

    The program's own shutdown (``shutdown_pools``) has normally ended
    the mp workers already; what is left is ``multiprocessing``'s
    resource tracker, which outlives its parent by design and would be
    seen as a left-over process (a zombie where init does not reap).
    It ignores SIGTERM and ends when the last copy of its pipe closes,
    so: end everything else first, then close the pipe and wait."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    spare = getattr(tracker, "_pid", None) or -1
    if not _reap(signal.SIGTERM, spare, grace_s):
        _reap(signal.SIGKILL, spare, grace_s)
    try:
        tracker._stop()
    except (AttributeError, OSError):
        pass
    _reap(signal.SIGKILL, -1, grace_s)


class TreeSampler:
    """Peak RSS and CPU delta of a fixed set of pids over a ``with``
    block.  The pid set is taken once at entry (pools are pre-spawned
    in set-up), so a sample is a few small reads, not a ``/proc`` scan.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.pids: List[int] = []
        self.peak_rss_bytes = 0
        self.cpu_s = 0.0
        self._cpu0: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak_rss_bytes = max(self.peak_rss_bytes, rss_bytes(self.pids))

    def __enter__(self) -> "TreeSampler":
        self.pids = tree_pids()
        self.peak_rss_bytes = rss_bytes(self.pids)
        self._cpu0 = cpu_seconds(self.pids)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="perf-rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.peak_rss_bytes = max(self.peak_rss_bytes, rss_bytes(self.pids))
        cpu1 = cpu_seconds(self.pids)
        self.cpu_s = sum(cpu1[p] - self._cpu0.get(p, 0.0) for p in cpu1)
