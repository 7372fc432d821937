"""Run the independent items of a loop side by side in forked processes.

``fan_out(fn, items)`` returns ``[fn(item) for item in items]``. P is the
number of CPUs this process may use, capped at the number of items, and the
items are dealt to the P processes in snake order: 0, 1, ..., P-1, then
P-1, ..., 1, 0, and again. Callers list their items in their natural order,
and this deal alone decides which process runs an item, the same on every
run. Process 0 is the caller itself, which runs its own share instead of
waiting, so no more processes are busy than there are CPUs; with P = 2, any
three consecutive items include one of the caller's. Each child sends one
pickle of its outcomes over a pipe and ends with ``os._exit``; results need
to pickle, ``fn`` and the items do not. The lowest-index failure is raised,
as the serial loop would raise it, and the warnings the items issued are
re-issued in item order. A failure whose exception does not pickle comes
back as a WorkerError holding its type name and message. A child that dies
without sending its outcomes (killed, or a result that does not pickle)
raises WorkerError, naming its exit code or signal and its items.

The loop runs in-process when P = 1, where ``os.fork`` is missing, inside a
child, and while the process has other threads, which fork would not copy.
Fork rather than spawn: items close over tables that do not pickle.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings

from .errors import WorkerError

_IN_CHILD = False  # set in a forked child, so that nested calls run in it


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _deal(n: int, procs: int) -> list:
    """The item indices of each of procs processes, dealt in snake order."""
    shares = [[] for _ in range(procs)]
    for i in range(n):
        lap, seat = divmod(i, procs)
        shares[procs - 1 - seat if lap % 2 else seat].append(i)
    return shares


def _share(fn, items, indices) -> dict:
    """index -> (failed, result or exception, warnings) for the items at
    indices, in order, up to and including the first that raises."""
    out = {}
    for i in indices:
        with warnings.catch_warnings(record=True) as caught:
            try:
                failed, value = False, fn(items[i])
            except Exception as exc:
                failed, value = True, exc
        out[i] = (failed, value,
                  [(w.message, w.category, w.filename, w.lineno) for w in caught])
        if failed:
            break
    return out


def _serve(write_fd, fn, items, indices):
    """Child side: run one share, send it, and exit without returning."""
    global _IN_CHILD
    _IN_CHILD = True
    status = 1
    try:
        outcomes = _share(fn, items, indices)
        try:
            data = pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
        except Exception:
            # a failed item's exception that does not pickle goes back as
            # its type name and message; a result that does not still fails
            outcomes = {i: (failed, WorkerError(
                            f"{type(value).__name__}: {value} (item {i})")
                            if failed else value, caught)
                        for i, (failed, value, caught) in outcomes.items()}
            data = pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)


def fan_out(fn, items) -> list:
    """[fn(item) for item in items], spread over the CPUs this process may
    use; see the module docstring."""
    items = list(items)
    n = len(items)
    procs = min(_cpu_count(), n)
    if (procs < 2 or _IN_CHILD or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return _collect(_share(fn, items, range(n)), n)
    shares = _deal(n, procs)
    children = []  # (pid, share, read end) of each child not yet reaped
    try:
        for p in range(1, procs):
            try:
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read_fd)
                    os.close(write_fd)
                    raise
            except OSError as exc:
                raise WorkerError(f"cannot start a worker process: {exc}") from exc
            if pid == 0:
                os.close(read_fd)
                _serve(write_fd, fn, items, shares[p])
            os.close(write_fd)
            children.append((pid, shares[p], os.fdopen(read_fd, "rb")))
        outcomes = _share(fn, items, shares[0])
        while children:
            pid, share, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status or not data:
                raise WorkerError(_death(pid, status, share))
            outcomes.update(pickle.loads(data))
    finally:
        for pid, _, pipe in children:  # left early: the results are not needed
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _collect(outcomes, n)


def _death(pid, status, share) -> str:
    """How worker pid, which ran the items at indices share, ended."""
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        try:
            how = f"was killed by signal {signal.Signals(-code).name}"
        except ValueError:
            how = f"was killed by signal {-code}"
    else:
        how = f"exited with code {code}"
    return f"worker process {pid} {how} and no result (its items: {share})"


def _collect(outcomes, n) -> list:
    """Re-issue warnings and raise the first failure in item order, as the
    serial loop would have; otherwise the results in item order."""
    registry = {}  # one call repeats a "default"-filtered warning once
    results = []
    for i in range(n):
        failed, value, caught = outcomes[i]
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno,
                                   registry=registry)
        if failed:
            raise value
        results.append(value)
    return results
