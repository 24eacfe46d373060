"""Work done beside the caller in forked processes.

Two kinds of work fork.  ``scored_in_shares`` splits a set of tasks into
one share per usable CPU: the caller scores the first share itself, and
each other share runs in a process forked from the caller, which reads the
caller's memory copy-on-write and sends back only its results over a pipe
(``tune`` scores its ncomp candidates so).  A one-block, one-component HB
chain (``hb.fit_hb_panels``) forks one process that draws the chain's
variates a sweep ahead of it and streams them over a pipe.

Both follow the rules of ``can_fork`` and ``forking``: a child runs only
on a usable CPU that the caller does not fill already, under the ``fork``
start method and in a process that is not daemonic, and every child is
joined on every path.  ``fork``, not ``spawn``: a spawned child would
import numpy and offerlab again and receive its inputs pickled, which
costs about as much as the work it saves.  ``fork`` is unsafe in a process
with threads; offerlab starts none of its own.
"""

from __future__ import annotations

import contextlib
import os

from .errors import OfferLabError

# set while scored_in_shares runs more than one share, in the caller and in
# the children it forks: the shares fill the usable CPUs
_sharing = False


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether the caller may fork a child to work beside it: a second
    usable CPU, no shares of ``scored_in_shares`` running, the ``fork``
    start method, and a caller that is not daemonic (a
    ``multiprocessing.Pool`` worker, which may not have children)."""
    if _sharing or _usable_cpus() < 2:
        return False
    import multiprocessing  # only a call that may fork imports it

    return (
        not multiprocessing.current_process().daemon
        and "fork" in multiprocessing.get_all_start_methods()
    )


@contextlib.contextmanager
def forking():
    """A ``fork(target, *args)`` that runs ``target(*args)`` in a forked child
    process and returns the started ``multiprocessing.Process``.  Every child
    it started is joined when the block ends, on every path; an exception
    that leaves the block terminates each child first, so that an error or
    an interrupt does not wait for it."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    children = []

    def fork(target, *args):
        child = context.Process(target=target, args=args)
        child.start()
        children.append(child)
        return child

    try:
        yield fork
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()


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


def scored_in_shares(tasks, score, what: str, weight) -> dict:
    """``{task: score(task)}`` for each distinct task, in ascending order.

    The tasks are split into one share per usable CPU (at most one per
    task): the largest task first, each to the share with the smallest sum
    of ``weight``.  The caller scores the first share; each other share
    runs in a forked process that sends back its results and writes its
    own warnings to stderr.  The caller scores every task when
    ``can_fork`` refuses a second process.  While the shares run, no
    process of theirs forks again.

    The result is the same for any number of shares, and so is the error:
    each share stops at its first failing task, and the error of the
    smallest failing task is raised once every share has finished (an
    error sent from a child keeps its type, message and attributes, not
    its ``__cause__`` or traceback).  A child that exits without a result
    is an ``OfferLabError`` naming ``what`` and its share.
    """
    global _sharing
    tasks = sorted(set(tasks))
    n_shares = min(len(tasks), _usable_cpus())
    if n_shares > 1 and not can_fork():
        n_shares = 1
    shares = [[] for _ in range(n_shares)]
    for task in reversed(tasks):
        min(shares, key=lambda share: sum(map(weight, share))).insert(0, task)
    if n_shares == 1:
        return _scored(tasks, _scored_share(tasks, score))

    import multiprocessing

    def send(sender, share):
        sender.send(_scored_share(share, score))

    receivers = []
    _sharing = True
    try:
        with forking() as fork:
            children = []
            for share in shares[1:]:
                receiver, sender = multiprocessing.Pipe(duplex=False)
                receivers.append(receiver)
                children.append((share, receiver, fork(send, sender, share)))
                sender.close()
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
    finally:
        _sharing = False
        for receiver in receivers:
            receiver.close()
    return _scored(tasks, scored)


def _scored(tasks, scored) -> dict:
    """``{task: result}`` in the order of ``tasks``, from the ``(task,
    result)`` pairs of every share; the smallest failing task's error is
    raised."""
    scored = dict(scored)
    failed = [task for task in tasks if isinstance(scored.get(task), Exception)]
    if failed:
        raise scored[failed[0]]
    return {task: scored[task] for task in tasks}
