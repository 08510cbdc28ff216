"""Processes that share the work of one call: the calling process and
w - 1 helpers forked with os.fork.

The phase grid's trials and the LASSO solver's passes both use the worker
rule below.  A Team serves the solver, whose passes take 0.1-1 ms each:
too short to wait for a helper woken through a pipe, which took a median
49 us per pass to wake.  So a Team's helpers spin on a shared anonymous
mmap for the length of the call.  The caller writes a command there and
runs its own share, then spins until every helper has written its answer.
The handoff's plain loads and stores rely on x86-64's memory order (stores
are seen in program order); callers check the machine before they make a
Team.
"""
from __future__ import annotations

import mmap
import os
import signal
import sys

import numpy as np

# spins between two checks that the other side is alive, about 0.5 ms
_SPINS_PER_CHECK = 4096
# int64 words per control line: one 64-byte cache line per process, so a
# helper's answer never shares a line with another process's writes
_WORDS = 8


def workers() -> int:
    """Processes to share a call's work among: one per CPU of the affinity
    mask, or 1 where fork is missing or this process has more than one OS
    thread. A threaded BLAS would be copied into every worker and
    oversubscribe the cores, and fork is unsafe beside live threads."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return cpus if threads == 1 else 1


class Team:
    """This process (worker 0) and helpers 1..w-1, forked at the first
    command and killed and reaped by close().

    The shared buffer holds one control line per process, then a region of
    each of the given byte sizes; array() views a region.  A subclass's
    serve(j, *command) runs a command in helper j and returns an int, its
    answer.  A helper exits when this process dies, and one that exits
    makes wait() raise ChildProcessError with its exit code.
    """

    def __init__(self, workers: int, sizes: tuple[int, ...]):
        self.workers = workers
        # regions start on 64-byte boundaries, so any array in one is aligned
        # as numpy's BLAS calls expect
        ends = np.cumsum([workers * _WORDS * 8] + [-(-size // 64) * 64 for size in sizes])
        self.buffer = mmap.mmap(-1, int(ends[-1]))
        self.starts = ends[:-1].tolist()
        # line 0: the command, its sequence number first; line j: helper j's
        # answer, the sequence number it has done first
        self.lines = np.frombuffer(self.buffer, np.int64, workers * _WORDS).reshape(workers, _WORDS)
        self.pids: list[int | None] = []
        self.seq = 0
        self.views: dict = {}  # np.frombuffer on an mmap takes 3 us

    def array(self, region: int, dtype, shape) -> np.ndarray:
        key = (region, dtype, shape)
        if key not in self.views:
            count = int(np.prod(shape))
            self.views[key] = np.frombuffer(self.buffer, dtype, count, self.starts[region]).reshape(shape)
        return self.views[key]

    def start(self, *command: int) -> None:
        """Post a command to every helper; the caller then runs its share."""
        if not self.pids:
            self._fork()
        line = self.lines[0]
        line[1 : 1 + len(command)] = command
        self.seq += 1
        line[0] = self.seq  # last: a helper reads the command once it sees this

    def wait(self) -> list[int]:
        """Spin until every helper has done the last command; their answers."""
        for j in range(1, self.workers):
            answer, spins = self.lines[j], 0
            while answer[0] != self.seq:
                spins += 1
                if spins % _SPINS_PER_CHECK == 0:
                    os.sched_yield()  # a helper waiting for a core gets this one
                    pid, status = os.waitpid(self.pids[j - 1], os.WNOHANG)
                    if pid:
                        self.pids[j - 1] = None
                        raise ChildProcessError(
                            f"helper {j} exited with code {os.waitstatus_to_exitcode(status)}"
                        )
        return [int(self.lines[j, 1]) for j in range(1, self.workers)]

    def close(self) -> None:
        for pid in self.pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self.pids = []

    def _fork(self) -> None:
        parent = os.getpid()
        for j in range(1, self.workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    # Ctrl-C reaches the whole process group; the caller
                    # handles it and kills the helpers
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    self._serve(j, parent)
                    code = 0
                except BaseException:
                    sys.excepthook(*sys.exc_info())
                finally:
                    # no atexit handlers, no flush of the caller's buffers
                    os._exit(code)
            self.pids.append(pid)

    def serve(self, j: int, *command: int) -> int:
        raise NotImplementedError

    def _serve(self, j: int, parent: int) -> None:
        command, answer = self.lines[0], self.lines[j]
        seen = 0
        while True:
            spins = 0
            while command[0] == seen:
                spins += 1
                if spins % _SPINS_PER_CHECK == 0:
                    if os.getppid() != parent:
                        return
                    os.sched_yield()
            seen = int(command[0])
            answer[1] = self.serve(j, *command[1:].tolist())
            answer[0] = seen
