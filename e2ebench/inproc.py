"""In-process verification runner: one process, serial, no daemon.

Reads its inputs from a JSON file and prints ``{"ready": true}`` once
set up.  A ``go N`` line on stdin then runs the measured phase for
``--seconds``, whole rounds of the inputs from request ``N`` on, and
prints ``{"done": {...}}`` (per-request latency and
verdicts, CPU seconds of the phase, peak RSS); the next line (``exit``)
or EOF ends the process.  Any other first line ends it at once.

Modes:

* ``cold`` — the ``repro verify``/CI path: each request is
  ``parse_program`` + ``Verifier(spec).verify_all()`` on a kernel
  renamed so that its program digest is new, no proof store and no
  telemetry sink.  Before each request, outside its timed window,
  ``repro.symbolic.reset_interning()`` drops the intern table, the
  compiled plans and every solver and simplifier memo, so each request
  starts as a fresh ``repro verify`` process would.  The same reset
  after the phase lets every runner exit from the same state, whichever
  kernel it verified last.
* ``warm`` — the daemon's configuration without the daemon: a warm
  proof store of this runner's own and a fresh
  ``obs.Telemetry(metrics=True, events=True)`` sink per request; set-up
  verifies each kernel once.

With ``--trace`` the layer boundaries are wrapped in spans, the
``done`` record carries per-boundary totals and the spans are written
to ``SPANS_FILE``.

Usage: ``python3 e2ebench/inproc.py --mode cold|warm --inputs FILE
--seconds N [--store DIR] [--trace]``
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from inputs import renamed
from spans import Recorder, install, per_boundary, write_spans


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("cold", "warm"), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--store")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.prover  # noqa: F401 - load every traced layer first

    recorder = None
    if args.trace:
        recorder = Recorder()
        install(recorder)

    from repro import obs
    from repro.frontend import parse_program
    from repro.prover import ProverOptions, Verifier
    from repro.symbolic import reset_interning

    with open(args.inputs, encoding="utf-8") as handle:
        data = json.load(handle)
    sources, sequence = data["sources"], data["sequence"]

    options = ProverOptions(proof_store=args.store) if args.store else None

    def verify(source: str):
        """One request: parse and verify, under a fresh sink when warm."""
        if args.mode == "cold":
            return Verifier(parse_program(source)).verify_all()
        with obs.use(obs.Telemetry(metrics=True, events=True)):
            return Verifier(parse_program(source), options).verify_all()

    if args.mode == "warm":
        for source in sources:
            verify(source)
    emit({"ready": True})

    command = sys.stdin.readline().split()
    if command[:1] != ["go"]:
        return 0
    first = int(command[1])
    records = []
    reset_wall = reset_cpu = 0.0  # left out of the phase's wall and CPU
    cpu_before = cpu_s()
    since = time.monotonic()
    phase_start = time.perf_counter()
    deadline = phase_start + args.seconds
    for n in range(first, len(sequence)):
        index, suffix = sequence[n]
        if (n - first) % len(sources) == 0 \
                and time.perf_counter() >= deadline:
            break  # whole shuffled rounds only
        source = renamed(sources[index], suffix) if suffix \
            else sources[index]
        if recorder is not None:
            recorder.set_request(f"req-{n}")
        if args.mode == "cold":
            reset_started, reset_cpu_before = time.perf_counter(), cpu_s()
            reset_interning()
            reset_wall += time.perf_counter() - reset_started
            reset_cpu += cpu_s() - reset_cpu_before
        started = time.perf_counter()
        report = verify(source)
        latency = time.perf_counter() - started
        records.append([index, latency,
                        [[r.property.name, r.proved, r.source]
                         for r in report.results]])
    else:
        raise SystemExit("input sequence exhausted before the run ended")
    until = time.monotonic()
    done = {
        "requests": records,
        "wall_s": time.perf_counter() - phase_start - reset_wall,
        "cpu_s": cpu_s() - cpu_before - reset_cpu,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.mode == "cold":
        report = None
        reset_interning()  # every runner exits from the same state
    if recorder is not None:
        spans = recorder.window(since, until)
        done["boundaries"] = per_boundary(spans)
        write_spans(spans)
    emit({"done": done})
    sys.stdin.readline()  # "exit" or EOF
    return 0


if __name__ == "__main__":
    sys.exit(main())
