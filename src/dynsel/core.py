"""The objective/cost contracts and the evaluation counter shared by every
solver, and `fork_map`, which spreads independent runs over forked processes.

A solution is its characteristic vector over a ground set of size n: a 1-d
uint8 numpy array of 0/1 entries.  Solvers never write to a vector they have
stored; a child is always a new array.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import zlib

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")


def substream(seed, *labels):
    """Derive an independent, reproducible generator from a master seed.

    Labels are hashed with crc32, so the stream only depends on (seed, labels)
    and never on call order or thread scheduling.
    """
    keys = [zlib.crc32(str(label).encode("utf-8")) for label in labels]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *keys]))


class ObjectiveFn:
    """Monotone objective f over bit vectors. Subclasses set `n` and implement
    __call__(bits) -> float."""

    n: int

    def __call__(self, bits: np.ndarray) -> float:
        raise NotImplementedError


class CostFn:
    """Monotone cost with c(empty) = 0.  `min_increment` is the smallest
    possible single-element cost increase on the instance."""

    min_increment = 0.0
    n: int

    def __call__(self, bits: np.ndarray) -> float:
        raise NotImplementedError


class EvalCounter:
    """Counts objective evaluations, the unit of the experimental budget.

    Every counted evaluation increments once, also one answered from stored
    values (a zero-flip offspring, a reused greedy scan) without calling f.
    """

    def __init__(self):
        self.count = 0

    def increment(self, k: int = 1) -> None:
        self.count += k


def phi_ratio(alpha: float) -> float:
    """Approximation guarantee (alpha/2) * (1 - e^-alpha)."""
    return (alpha / 2.0) * (1.0 - math.exp(-alpha))


# Below this many planned evaluations a fork costs more than it saves: a
# 4,000-evaluation grid took ~65 ms serially and was slower forked.
FORK_MIN_EVALS = 10_000


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(jobs: int, items: int, planned_evals: int) -> int:
    """How many processes `fork_map` should use for `items` items that plan
    `planned_evals` objective evaluations in all: at most `jobs` and `items`,
    and 1 below FORK_MIN_EVALS or where the platform cannot fork."""
    if not hasattr(os, "fork") or planned_evals < FORK_MIN_EVALS:
        return 1
    return max(1, min(jobs, items))


def fork_map(fn, items, jobs: int) -> list:
    """`[fn(x) for x in items]`, computed by `jobs` processes.

    Item i goes to process i % jobs.  The caller computes share 0 itself;
    each of the jobs - 1 forked children computes its share and pickles the
    results (or the exception fn raised) back through a pipe, then exits.
    Results come back in item order, so they equal the serial ones whenever
    fn(x) depends on x alone.  Every child is reaped before this returns or
    raises; one that ends without sending its share raises
    ChildProcessError naming the share's items.  Children inherit fn and
    everything it reads (f, c, schedules) by fork, so nothing but results
    is pickled; dynsel itself starts no threads a fork could split.
    """
    items = list(items)
    jobs = min(jobs, len(items))
    if jobs < 2:
        return [fn(x) for x in items]
    children = {}  # pid -> (read end of its pipe, item indices), until reaped
    try:
        for k in range(1, jobs):
            share = range(k, len(items), jobs)
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child never returns into the caller's stack
                code = 1
                try:
                    try:
                        payload = (True, [fn(items[i]) for i in share])
                    except Exception as exc:  # noqa: BLE001 - the parent raises it
                        payload = (False, exc)
                    with os.fdopen(write, "wb") as out:
                        pickle.dump(payload, out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (os.fdopen(read, "rb"), share)
        results = {i: fn(items[i]) for i in range(0, len(items), jobs)}
        for pid, (pipe, share) in list(children.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            del children[pid]
            if code != 0:
                how = (f"was killed by signal {-code}" if code < 0
                       else f"exited with code {code}")
                raise ChildProcessError(
                    f"worker process {pid} {how} before returning items "
                    + ", ".join(repr(items[i]) for i in share))
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.update(zip(share, value))
        return [results[i] for i in range(len(items))]
    finally:
        for pid, (pipe, _share) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
