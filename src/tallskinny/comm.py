"""Rank/size communicator with deterministic tree collectives.

One `Communicator` class serves every group size. The ranks of a group
share a `_World` of queue mailboxes, one thread per rank under `run_ranks`;
`solo_communicator()` is a group of size 1. Reductions run over a fixed
binary tree in rank order, and the root then sends the result to every
rank, so repeated runs with the same size are bitwise identical. The
custom reduce operator is treated as non-commutative everywhere:
combine(lower-rank subtree, higher-rank subtree), always.

Payloads are n-sized: for an m x n matrix, no collective carries more
than n x n values (a crossproduct, an R factor), never anything that
grows with m. tests/test_payloads.py pins the rule.

As with an MPI op, an operator is a name and a combine; the payload
carries its own shape and dtype, and each combine's output is checked
against both. Each message up the tree carries the sender's header
(operator name, payload shape, dtype) next to its subtree result. The
parent compares that header with its own before combining and aborts the
whole group on any disagreement. Every rank waits for the root's result,
and a failing rank posts a poison message to every peer before raising,
so errors surface on all ranks instead of deadlocking.
"""

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dense import as_matrix

DEFAULT_TIMEOUT = 120.0


class CollectiveError(RuntimeError):
    """A collective failed somewhere in the rank group."""


class CollectiveContractError(CollectiveError):
    """Ranks disagreed on the header, or a combine changed shape or dtype."""


class RankFailures(RuntimeError):
    """One or more rank contexts raised; `failures` maps rank -> exception."""

    def __init__(self, failures):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        super().__init__(f"rank(s) {ranks} failed; rank {min(self.failures)}: {first!r}")


@dataclass(frozen=True)
class ReduceOperator:
    """A named deterministic binary combine of two payloads.

    combine(lower, higher) must return a matrix of its operands' shape and
    dtype; the first operand always comes from the lower-rank subtree.
    """

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]


SUM = ReduceOperator("sum", np.add)


class _Poison:
    """Posted to every peer by a failing rank so nobody blocks forever."""

    def __init__(self, src, text):
        self.src = src
        self.text = text


class _World:
    """Shared mailbox state for one in-process rank group."""

    def __init__(self, size, timeout=DEFAULT_TIMEOUT):
        self.size = size
        self.timeout = timeout
        self.inboxes = [queue.SimpleQueue() for _ in range(size)]


class Communicator:
    """One rank of a group: rank identity plus collectives.

    Owned by exactly one thread; its peers share the same `_World`.
    """

    def __init__(self, world, rank):
        if not 0 <= rank < world.size:
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self.rank = rank
        self.size = world.size
        self._seq = 0
        self._pending = []

    @property
    def collective_count(self):
        """Number of collectives entered on this handle (sequence counter)."""
        return self._seq

    def allreduce_sum(self, local):
        """Elementwise sum of identically shaped matrices over all ranks."""
        return self.allreduce_custom(local, SUM)

    def allreduce_custom(self, local, op):
        """Tree fold of op.combine in rank order; every rank gets the result."""
        local = as_matrix(local, "local")
        return self._allreduce(local, op, (op.name, local.shape, str(local.dtype)))

    def barrier(self):
        """Block until every rank arrives (plumbing; a 1x1 allreduce)."""
        self.allreduce_sum(np.zeros((1, 1)))

    # -- point-to-point plumbing ------------------------------------------

    def _send(self, dst, seq, kind, payload):
        self._world.inboxes[dst].put((seq, kind, self.rank, payload))

    def _poison_peers(self, exc):
        for dst in range(self.size):
            if dst != self.rank:
                self._world.inboxes[dst].put(_Poison(self.rank, str(exc)))

    def _fail(self, exc):
        self._poison_peers(exc)
        raise exc

    def _recv(self, seq, kind, src):
        for idx, msg in enumerate(self._pending):
            if msg[:3] == (seq, kind, src):
                return self._pending.pop(idx)[3]
        deadline = time.monotonic() + self._world.timeout
        inbox = self._world.inboxes[self.rank]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._fail(
                    CollectiveError(
                        f"rank {self.rank} timed out after {self._world.timeout}s "
                        f"waiting for ({kind}, seq {seq}) from rank {src}"
                    )
                )
            try:
                msg = inbox.get(timeout=remaining)
            except queue.Empty:
                continue
            if isinstance(msg, _Poison):
                raise CollectiveError(
                    f"collective aborted by rank {msg.src}: {msg.text}"
                )
            if msg[:3] == (seq, kind, src):
                return msg[3]
            self._pending.append(msg)

    # -- the one collective -------------------------------------------------

    def _allreduce(self, local, op, header):
        # Up the tree: each child sends (header, subtree result) once and
        # never touches that result again, so the parent combines it as is
        # after checking the header. Down: the root sends the result to
        # every rank, and every rank blocks on it, so a failure at any depth
        # reaches every rank as poison or timeout.
        seq = self._seq
        self._seq += 1
        acc = local.copy()
        stride = 1
        while stride < self.size:
            group = stride * 2
            if self.rank % group == stride:
                self._send(self.rank - stride, seq, "red", (header, acc))
                break
            if self.rank % group == 0 and self.rank + stride < self.size:
                src = self.rank + stride
                their_header, other = self._recv(seq, "red", src)
                if their_header != header:
                    self._fail(
                        CollectiveContractError(
                            f"collective sequence mismatch at seq {seq}: rank "
                            f"{self.rank}: {header!r}; rank {src}: {their_header!r}"
                        )
                    )
                try:
                    acc = op.combine(acc, other)
                except Exception as exc:
                    self._fail(
                        CollectiveError(
                            f"reduce operator {op.name!r} failed on rank "
                            f"{self.rank}: {exc}"
                        )
                    )
                if acc.shape != local.shape or acc.dtype != local.dtype:
                    self._fail(
                        CollectiveContractError(
                            f"reduce operator {op.name!r} emitted {acc.shape} "
                            f"{acc.dtype}, expected {local.shape} {local.dtype}"
                        )
                    )
            stride = group
        if self.rank == 0:
            for dst in range(1, self.size):
                self._send(dst, seq, "bc", acc)
            return acc
        return np.array(self._recv(seq, "bc", 0), copy=True)


def core_share(ranks):
    """Cores each of `ranks` in-process ranks owns: max(1, cores // ranks).

    The cores are this process's affinity mask where the platform has one,
    else os.cpu_count(). The CLI sizes each rank's BLAS by this share and
    random generation sizes its thread count by it, so the two levels of
    threads never ask for more cores than the machine gives.
    """
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, cores // max(1, ranks))


def solo_communicator():
    """A size-1 group: collectives validate their input and return a copy."""
    return Communicator(_World(1), 0)


def run_ranks(size, target, *args, timeout=DEFAULT_TIMEOUT, **kwargs):
    """Run target(comm, *args, **kwargs) on `size` in-process ranks.

    Returns the per-rank return values in rank order. If any rank raises,
    the surviving results are discarded and RankFailures carries every
    rank's exception. A rank that raises outside a collective poisons its
    peers as a failing collective does, so none of them waits for it until
    the timeout.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    world = _World(size, timeout=timeout)
    results = [None] * size
    failures = {}

    def body(rank):
        comm = Communicator(world, rank)
        try:
            results[rank] = target(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via RankFailures
            failures[rank] = exc
            comm._poison_peers(exc)

    threads = [
        threading.Thread(target=body, args=(r,), daemon=True, name=f"rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise RankFailures(failures)
    return results
