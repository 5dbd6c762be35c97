"""The forked workers of a `--workers N` scan.

The scan path of `cli` imports this module only when a scan runs on more
than one process, so a one-process run never compiles or loads it.
Forking is safe because the CLI starts no threads, and no pool module is
imported: concurrent.futures alone costs a fresh process about 22 ms.
"""

import marshal
import os
from os import _exit


def rows(fn, tag, items, workers):
    """Yield fn(tag(item), item) of each of the ordered `items`, in order.

    The items are cut into chunks of about 1/(16 N) of the scan, N =
    `workers`.  This process makes chunks 0, N, 2N, ... and forks N - 1
    workers; worker w makes chunks w, w + N, ... from the items it inherits,
    so nothing is pickled on the way in, and sends them back on its own pipe
    (`_worker`).  A full pipe blocks its worker, so none runs more than about
    one chunk ahead.  Ending, closing or dropping this generator kills and
    reaps every worker."""
    size = -(-len(items) // (16 * workers))
    chunks = -(-len(items) // size)
    pids, pipes = [], []
    try:
        for w in range(1, workers):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _worker(fn, tag, (items[k * size:(k + 1) * size]
                                      for k in range(w, chunks, workers)), fd, pipes)
            finally:
                os.close(fd)
            pids.append(pid)
        for k in range(chunks):
            if k % workers:
                yield from _receive(pipes[k % workers - 1], k % workers, k)
            else:
                for item in items[k * size:(k + 1) * size]:
                    yield fn(tag(item), item)
    finally:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL; importing signal would cost about 1 ms
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _worker(fn, tag, chunks, fd, pipes):
    """The body of a forked scan worker; it never returns.

    Each chunk's rows go to fd as one frame: an 8-byte little-endian length,
    then the marshalled list of rows.  The first chunk that raises sends its
    pickled exception in place of the list and ends the worker.  The worker
    closes the read ends it inherited (`pipes`), so its writes fail once the
    parent is gone, and it leaves only through `_exit`, so it flushes
    nothing it inherited, such as the parent's stdout buffer."""
    try:
        for pipe in pipes:
            pipe.close()
        for chunk in chunks:
            try:
                payload = [fn(tag(item), item) for item in chunk]
            except Exception as exc:
                import pickle

                payload = pickle.dumps(exc)
            frame = marshal.dumps(payload)
            view = memoryview(len(frame).to_bytes(8, "little") + frame)
            while view:
                view = view[os.write(fd, view):]
            if isinstance(payload, bytes):
                break
    finally:
        _exit(0)


def _receive(pipe, w, k):
    """The rows of chunk k from worker w's pipe; raise the chunk's exception
    if it sent one, and ChildProcessError if the worker ended first."""
    size = int.from_bytes(pipe.read(8), "little")
    frame = pipe.read(size)
    if not size or len(frame) < size:
        raise ChildProcessError(f"scan worker {w} ended before sending chunk {k}")
    payload = marshal.loads(frame)
    if isinstance(payload, bytes):
        import pickle

        raise pickle.loads(payload)
    return payload
