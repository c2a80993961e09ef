"""Rank/size communicator with deterministic tree collectives.

One `Communicator` class serves every group size. The ranks of a group
share a `_World` of FIFO queues, one thread per rank under `run_ranks`;
`solo_communicator()` is a group of size 1. Reductions run over a fixed
binary tree in rank order, and the root then sends the result to every
rank, so repeated runs with the same size are bitwise identical. The
custom reduce operator is treated as non-commutative everywhere:
combine(lower-rank subtree, higher-rank subtree), always.

Each tree edge has its own queue. At level j (stride 2^j) rank d hears
only from rank d + 2^j, on its level-j queue, and its broadcast queue
hears only from rank 0. Each sender posts once per collective, in
collective order, so the next message in a queue is always the one the
current collective waits for: a receive is one blocking get, and no
message carries a tag to be matched or waits in a side buffer.

Payloads are n-sized: for an m x n matrix, no collective carries more
than n x n values (a crossproduct, an R factor), never anything that
grows with m. tests/test_payloads.py pins the rule.

As with an MPI op, an operator is a name and a combine; the payload
carries its own shape and dtype, and each combine's output is checked
against both. Each message up the tree carries the sender's header
(operator name, payload shape, dtype) next to its subtree result. The
parent compares that header with its own before combining and aborts the
whole group on any disagreement. Every rank waits for the root's result,
and gets its own copy of it.

A failing collective only raises; run_ranks tells the peers. A failure
travels the edges its rank's result would have taken: a rank whose
target raises, inside a collective or outside one, posts a poison
message on its parent's level queue, or, at the root, on every broadcast
queue. A rank that fails because it read a poison passes the same poison
on, so the failure climbs to the root, which broadcasts it, and every
aborted rank names the rank where the failure began, with that rank's
message. Queues keep one feeder even then, so a poison never overtakes a
real message and the reports are deterministic. A rank that returns
without entering a collective its peers entered posts nothing, and its
ancestors wait for it until the timeout, even if another rank fails.
"""

import itertools
import numbers
import operator
import os
import queue
import threading
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
    """One or more rank contexts raised; `failures` maps rank -> exception.

    The message names the failed ranks as ranges ("0-255", "0, 2-4, 7")
    and gives the lowest failed rank's exception.
    """

    def __init__(self, failures):
        self.failures = dict(failures)
        groups = itertools.groupby(enumerate(sorted(self.failures)), lambda ir: ir[1] - ir[0])
        runs = [[r for _, r in group] for _, group in groups]
        ranks = ", ".join(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]) for run in runs)
        first = self.failures[min(self.failures)]
        super().__init__(f"rank(s) {ranks} failed; rank {min(self.failures)}: {first!r}")


@dataclass(frozen=True)
class ReduceOperator:
    """A named deterministic binary combine of two payloads.

    combine(lower, higher) must return an ndarray of its operands' shape
    and dtype; the first operand always comes from the lower-rank subtree.
    """

    name: str
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray]


SUM = ReduceOperator("sum", np.add)


def _edges(rank, size):
    """rank's tree edges: ([(child, level)] in level order, [(dst, box)]).

    Rank d receives at level j from d + 2^j while 2^(j+1) divides d, and
    sends its subtree result to d - 2^j at the level j of its lowest set
    bit. The root instead sends the result on every peer's broadcast
    queue (box -1).
    """
    top = (rank & -rank).bit_length() - 1 if rank else (size - 1).bit_length()
    children = [(rank + (1 << j), j) for j in range(top) if rank + (1 << j) < size]
    return children, [(rank - (1 << top), top)] if rank else [(d, -1) for d in range(1, size)]


def _layout(x):
    """'shape dtype' of an array; the type name of anything else."""
    return f"{x.shape} {x.dtype}" if isinstance(x, np.ndarray) else type(x).__name__


class _Poison:
    """A failure on its way along the tree: where it began (src) and its message.

    run_ranks posts it on a failed rank's own outbound edges, so no rank
    blocks forever; a rank that read it passes the same object on.
    """

    def __init__(self, src, text):
        self.src = src
        self.text = text


class _World:
    """The queues of one in-process rank group.

    inboxes[d][j] is rank d's queue for tree level j, fed only by rank
    d + 2^j; inboxes[d][-1] is its broadcast queue, fed only by rank 0
    (see _edges). Each feeder posts once per collective, in collective
    order, and a failed feeder's poison comes last, so a queue's next
    message is the one its owner waits for and needs no matching. A group
    of p ranks has ceil(log2 p) levels, so p (ceil(log2 p) + 1) queues.
    """

    def __init__(self, size, timeout=DEFAULT_TIMEOUT):
        self.size = size
        self.timeout = timeout
        boxes = (size - 1).bit_length() + 1
        self.inboxes = [[queue.SimpleQueue() for _ in range(boxes)] for _ in range(size)]


class Communicator:
    """One rank of a group: rank identity plus collectives.

    Owned by exactly one thread; its peers share the same `_World`. A
    collective that fails here raises and posts nothing: telling the
    peers is run_ranks' job. Each rank's result is its own array, so a
    caller may update it in place.
    """

    def __init__(self, world, rank):
        if not 0 <= rank < world.size:
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self.rank = rank
        self.size = world.size
        self._seq = 0

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

    def _send(self, dst, box, payload):
        self._world.inboxes[dst][box].put(payload)

    def _recv(self, box, src, seq):
        try:
            msg = self._world.inboxes[self.rank][box].get(timeout=self._world.timeout)
        except queue.Empty:
            raise CollectiveError(
                f"rank {self.rank} timed out after {self._world.timeout}s waiting "
                f"for ({'bc' if box == -1 else 'red'}, seq {seq}) from rank {src}"
            )
        if isinstance(msg, _Poison):
            exc = CollectiveError(f"collective aborted by rank {msg.src}: {msg.text}")
            exc.poison = msg  # run_ranks passes it on unchanged
            raise exc
        return msg

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
        children, out = _edges(self.rank, self.size)
        for src, level in children:
            their_header, other = self._recv(level, src, seq)
            if their_header != header:
                raise CollectiveContractError(
                    f"collective sequence mismatch at seq {seq}: rank "
                    f"{self.rank}: {header!r}; rank {src}: {their_header!r}"
                )
            try:
                acc = op.combine(acc, other)
            except Exception as exc:
                raise CollectiveError(
                    f"reduce operator {op.name!r} failed on rank {self.rank}: {exc}"
                ) from exc
            if _layout(acc) != _layout(local):
                raise CollectiveContractError(
                    f"reduce op {op.name!r} emitted {_layout(acc)}, not {_layout(local)}"
                )
        for dst, box in out:
            self._send(dst, box, (header, acc) if self.rank else acc)
        if self.rank == 0:
            # Each peer copies acc only after its get, so the root keeps
            # its caller's updates out of the array it sent.
            return acc.copy() if self.size > 1 else acc
        return np.array(self._recv(-1, 0, seq), copy=True)


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
    rank's exception. This is the one place that tells the peers of a
    failure: for any rank whose target raises, inside a collective or
    outside one, it posts a poison message on that rank's own outbound
    edges (its parent's level queue, or from the root every broadcast
    queue), the poison the rank read if it failed by reading one, or a new
    one naming the rank and its exception. The poison climbs to the root
    and comes down the broadcast, so no rank in the collective waits
    until the timeout; a failing rank posts 1 message, or size - 1 from
    the root. A rank that never enters a collective its peers entered,
    and does not raise, still costs its ancestors the timeout. A size
    that is not an integer >= 1 (numpy integers count), or a timeout
    (seconds per wait) outside (0, threading.TIMEOUT_MAX], raises
    ValueError before any rank starts: a larger one, inf included,
    overflows the queue's wait.
    """
    if (not isinstance(size, numbers.Integral) or size < 1
            or not 0 < timeout <= threading.TIMEOUT_MAX):
        raise ValueError(f"need an integer size >= 1 and 0 < timeout <= TIMEOUT_MAX, got {size=}, {timeout=}")
    size = operator.index(size)
    world = _World(size, timeout=timeout)
    results = [None] * size
    failures = {}

    def body(rank):
        comm = Communicator(world, rank)
        try:
            results[rank] = target(comm, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - reported via RankFailures
            failures[rank] = exc
            poison = getattr(exc, "poison", None) or _Poison(rank, str(exc))
            for dst, box in _edges(rank, size)[1]:
                world.inboxes[dst][box].put(poison)

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
