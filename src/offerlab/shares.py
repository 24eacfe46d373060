"""Independent tasks scored on every usable CPU.

``scored_in_shares`` splits a set of tasks into one share per usable CPU.
The caller scores the first share itself; each other share runs in a
process forked from the caller, which reads the caller's memory
copy-on-write and sends back only its results over a pipe.  ``fork``, not
``spawn``: a spawned child would import numpy and offerlab again and
receive its inputs pickled, which costs about as much as the work it
saves.  ``fork`` is unsafe in a process with threads; offerlab starts none
of its own.
"""

from __future__ import annotations

import os

from .errors import OfferLabError


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _scored_share(share, score):
    """``(task, result)`` per task of ``share`` in order, ending at the
    first failing task with ``(task, error)``."""
    scored = []
    for task in share:
        try:
            scored.append((task, score(task)))
        except Exception as exc:
            scored.append((task, exc))
            break
    return scored


def scored_in_shares(tasks, score, what: str, weight=lambda task: 1, fork: bool = True) -> dict:
    """``{task: score(task)}`` for each distinct task, in ascending order.

    The tasks are split into one share per usable CPU (at most one per
    task): the largest task first, each to the share with the smallest sum
    of ``weight``.  The caller scores the first share; each other share
    runs in a forked process that sends back its results and writes its
    own warnings to stderr.  The caller scores every task when ``fork`` is
    false, with one CPU or task, without the ``fork`` start method, and in
    a daemonic process (a ``multiprocessing.Pool`` worker), which may not
    have children.

    The result is the same for any number of shares, and so is the error:
    each share stops at its first failing task, and the error of the
    smallest failing task is raised once every share has finished (an
    error sent from a child keeps its type, message and attributes, not
    its ``__cause__`` or traceback).  A child that exits without a result
    is an ``OfferLabError`` naming ``what`` and its share.  Every child is
    joined on every path; one whose result has not arrived is terminated
    first, so an interrupt does not wait for it.
    """
    tasks = sorted(set(tasks))
    n_shares = min(len(tasks), _usable_cpus()) if fork else 1
    if n_shares > 1:  # a call that cannot fork does not import multiprocessing
        import multiprocessing

        daemonic = multiprocessing.current_process().daemon
        if daemonic or "fork" not in multiprocessing.get_all_start_methods():
            n_shares = 1
    shares = [[] for _ in range(n_shares)]
    for task in reversed(tasks):
        min(shares, key=lambda share: sum(map(weight, share))).insert(0, task)

    def send(sender, share):
        sender.send(_scored_share(share, score))

    children, received = [], 0
    try:
        for share in shares[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(target=send, args=(sender, share))
            child.start()
            sender.close()
            children.append((share, receiver, child))
        scored = _scored_share(shares[0], score)
        for share, receiver, child in children:
            try:
                scored += receiver.recv()
            except EOFError:
                child.join()
                raise OfferLabError(
                    f"the process {what} {share} exited with code {child.exitcode} "
                    "before sending a result"
                ) from None
            received += 1
    finally:
        for *_, child in children[received:]:
            child.terminate()
        for _, receiver, child in children:
            child.join()
            receiver.close()
    scored = dict(scored)
    failed = [task for task in tasks if isinstance(scored.get(task), Exception)]
    if failed:
        raise scored[failed[0]]
    return {task: scored[task] for task in tasks}
