"""Runs CLI commands for the benchmark driver from a small process.

On Linux a child's ru_maxrss starts at the high-water RSS of the process
that forked it.  Commands are therefore forked from this process, which
imports only os, signal, sys and time and runs under `python -S`, not from
the driver, so each command's max RSS is its own.

Protocol: one request per line on stdin, the argv joined by NUL bytes.  The
reply on stdout is one line `exit wall_s cpu_s maxrss_kb nbytes` followed by
nbytes of the command's stdout.  Commands inherit this process's stderr, cwd
and environment.  A command still running after the timeout (argv[1], in
seconds) is killed with its process group.  EOF on stdin ends the process.
"""

import os
import signal
import sys
import time


def run(argv, timeout_s):
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.setsid()
            os.dup2(w, 1)
            os.close(r)
            os.close(w)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    os.close(w)

    def kill(*_):
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout_s)
    chunks = []
    while chunk := os.read(r, 1 << 16):
        chunks.append(chunk)
    os.close(r)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.alarm(0)
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss, b"".join(chunks))


def main():
    timeout_s = int(sys.argv[1])
    for line in sys.stdin.buffer:
        code, wall, cpu, rss_kb, out = run(line.rstrip(b"\n").decode().split("\0"), timeout_s)
        sys.stdout.buffer.write(f"{code} {wall!r} {cpu!r} {rss_kb} {len(out)}\n".encode() + out)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
