"""Benchmark-owned launcher for one ``repro serve`` daemon process.

Runs ``VerificationServer`` through its public API (``ServeOptions``
with a proof store, default ``jobs=1``) on an ephemeral localhost port
and prints one JSON line per event on stdout:

* ``{"address": [host, port]}`` once the daemon accepts connections;
* ``{"usage": {...}}`` for each ``usage`` line read on stdin (CPU
  seconds and peak RSS of this process), and ``{"mark": t}`` for each
  ``mark`` line (``time.monotonic()``, which spans also use);
* ``{"closed": {...}}`` after a client's ``shutdown`` request has
  stopped the daemon and ``close()`` has returned: the service threads
  still alive and, with ``--trace``, per-boundary span totals for the
  spans between the two marks, which are also written to
  ``SPANS_FILE`` with each prover-thread span tagged by its submit id.

Stdin reaching EOF ends the control channel; the process then waits for
a client's ``shutdown`` request (at most a minute, so it never outlives
the benchmark), closes the daemon and exits.

Usage: ``python3 e2ebench/daemon.py --store DIR [--trace]``
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time

from spans import (PROVER_THREAD, Recorder, install, per_boundary,
                   tag_groups, write_spans)


#: seconds to wait for the shutdown request once stdin has closed
ORPHAN_TIMEOUT = 60.0


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def usage() -> dict:
    """CPU seconds and peak RSS (MiB) of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.serve.server import ServeOptions, VerificationServer

    recorder = None
    if args.trace:
        recorder = Recorder()
        install(recorder)

    server = VerificationServer(ServeOptions(host="127.0.0.1", port=0,
                                             store=args.store))
    server.start()
    emit({"address": list(server.address)})
    marks = []
    for line in sys.stdin:
        command = line.strip()
        if command == "usage":
            emit({"usage": usage()})
        elif command == "mark":
            marks.append(time.monotonic())
            emit({"mark": marks[-1]})
    if not server.wait(timeout=ORPHAN_TIMEOUT):
        server.shutdown()  # the benchmark is gone; do not outlive it
    server.close()
    alive = [t for t in threading.enumerate()
             if t is not threading.main_thread()]
    closed = {"threads_after_close": len(alive)}
    if recorder is not None:
        since = marks[0] if marks else float("-inf")
        until = marks[1] if len(marks) > 1 else float("inf")
        spans = recorder.window(since, until)
        closed["boundaries"] = per_boundary(spans)
        tag_groups(spans, PROVER_THREAD)
        write_spans(spans)
    emit({"closed": closed})
    return 0


if __name__ == "__main__":
    sys.exit(main())
