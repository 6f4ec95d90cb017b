"""The repository benchmark: the verifier as its users drive it.

Users are a developer in the edit -> verify loop (through the ``repro
serve`` daemon) and CI re-verifying kernels (in-process, the ``repro
verify`` path).  A request is one kernel source taken to a terminal
verdict; every verdict is checked against the expected-verdict oracle
in :mod:`inputs`.  All workloads are closed loops, because each editor
waits for its verdict:

* ``warm-resubmit`` — daemon, 1 client: a fixed seeded number of
  identical resubmits of the 7 paper kernels after a warm-up pass that
  submits each once;
* ``edit-loop`` — daemon, 2 sessions each submitting a fixed seeded
  sequence of episodes over the 7 kernels and their 73 single-handler
  mutants (warm-up: the 7 originals);
* ``cold-batch`` — in-process, serial, no store and no telemetry:
  renamed synthetic and paper kernels, with every memo dropped before
  each request, in fresh runner processes.

The daemon runs in its own process (``daemon.py``) with a fresh proof
store per run; the in-process runner is ``inproc.py``.  With
``--trace 0`` the run prints the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it runs the workload untraced
and then traced (spans around each layer boundary of ``spans.py``) and
prints the per-layer metrics; metrics read from verdict frames come from
the untraced phase, span metrics from the traced one.

A traced run leaves its spans in ``e2ebench/last_spans.jsonl``.

Usage: ``python3 e2ebench/run.py --workload NAME --seed N --seconds S
--trace 0|1``.  The last stdout line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from inputs import (EditWalk, cold_bases, mutant_kernels, paper_kernels,
                    renamed, shuffled_rounds)
from spans import (BOUNDARIES, PROVER_THREAD, REQUEST, START, THREAD,
                   read_spans, self_time)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: daemon set-ups per run whose median is ``setup_s`` (and ``shutdown_s``)
SETUP_REPEATS = 3
#: fresh in-process runners the untraced cold-batch phase is split
#: over, one after another; their set-ups and exits give ``setup_s``
#: and ``shutdown_s``
RUNNER_REPEATS = 9
#: client I/O timeout for one request, seconds
REQUEST_TIMEOUT = 30.0
#: the whole run is abandoned (children killed) after this many seconds
RUN_TIMEOUT = 170
#: closed-loop editor sessions on edit-loop (at most ``nproc`` = 2)
EDIT_SESSIONS = 2
#: warm-resubmit rounds of the 7 kernels per measured second: each run
#: submits ``round(seconds * WARM_ROUND_RATE)`` whole rounds, so the
#: daemon serves the same number of requests (and grows its memory by
#: the same amount) however fast the host is
WARM_ROUND_RATE = 2.5
#: edit-loop episodes per session and measured second: each run submits
#: ``round(seconds * EDIT_EPISODE_RATE)`` whole episodes per session, the
#: same seeded sequence on every run and phase
EDIT_EPISODE_RATE = 1.75
#: a session stops at a round or episode boundary after this many times
#: ``seconds`` even if its sequence is not done, so that a much slower
#: program still ends within the run's time limit
TIME_LIMIT = 3.0
#: per-layer metrics of a daemon workload or of warm-resubmit alone;
#: reported as 0 where the layer does not run
DAEMON_ONLY = ("serve.unattributed_ms", "serve.verify_attributed_share",
               "serve.threads_after_close")
WARM_RESUBMIT_ONLY = ("engine.inprocess_same_config_ms",
                      "serve.overhead_ratio")


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Child:
    """A benchmark-owned Python process speaking JSON lines on stdout."""

    def __init__(self, script: str, *args: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=str(ROOT),
        )

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def read(self, key: str):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child exited with status "
                               f"{self.proc.wait()} before sending {key!r}")
        return json.loads(line)[key]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Daemon(Child):
    """One ``repro serve`` daemon with a fresh store under ``tmp``."""

    def __init__(self, tmp: Path, trace: bool = False) -> None:
        store = tempfile.mkdtemp(dir=tmp, prefix="store-")
        super().__init__("daemon.py", "--store", store,
                         *(["--trace"] if trace else []))
        self.address = tuple(self.read("address"))

    def command(self, name: str):
        self.send(name)
        return self.read(name)

    def shutdown(self) -> threading.Thread:
        """Send the public ``shutdown`` request, then wait in a thread
        (returned) for the process to exit; ``self.stopped`` becomes
        (seconds from request to exit, the ``closed`` record).

        The request follows a ``hello`` round trip, as from an editor's
        session.  Sent as the first frame of a fresh connection it races
        the daemon's accept loop, which then sometimes sees the stop flag
        before blocking in ``accept()`` again, and the figure turns
        bimodal."""
        from repro.serve.client import ServeClient

        self.proc.stdin.close()
        client = ServeClient(self.address, timeout=REQUEST_TIMEOUT)
        client.hello()
        started = time.perf_counter()
        client.shutdown()

        def wait() -> None:
            closed = self.read("closed")
            self.proc.wait()
            self.stopped = (time.perf_counter() - started, closed)

        thread = threading.Thread(target=wait)
        thread.start()
        return thread


class Runner(Child):
    """One in-process runner (``inproc.py``)."""

    def __init__(self, tmp: Path, mode: str, inputs: Path, seconds: float,
                 trace: bool = False) -> None:
        args = ["--mode", mode, "--inputs", str(inputs),
                "--seconds", str(seconds)]
        if mode == "warm":
            args += ["--store", tempfile.mkdtemp(dir=tmp, prefix="store-")]
        super().__init__("inproc.py", *args,
                         *(["--trace"] if trace else []))
        self.read("ready")
        self.setup_s = time.perf_counter() - self.started

    def measure(self, first: int = 0) -> dict:
        """Run the measured phase from request ``first`` of the inputs."""
        self.send(f"go {first}")
        return self.read("done")

    def shutdown(self) -> float:
        started = time.perf_counter()
        self.send("exit")
        self.proc.wait()
        return time.perf_counter() - started


# ---------------------------------------------------------------------------
# requests and their outcomes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One request: its input, latency, and what came back."""

    kernel: object
    source: str
    latency: float
    done: float
    error: Optional[str] = None
    verdict: dict = field(default_factory=dict)
    results: List[Tuple[str, bool, str]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.error is None and self.kernel.check(
            [(name, proved) for name, proved, _ in self.results])


def until(deadline: float, kernels: Iterator, round_size: int = 1
          ) -> Callable[[], Optional[object]]:
    """The next kernel from ``kernels`` until they run out or
    ``deadline`` has passed at a round boundary (then ``None``), so a
    run of shuffled rounds or episodes always measures whole ones."""
    taken = 0

    def next_kernel():
        nonlocal taken
        if taken % round_size == 0 and time.perf_counter() >= deadline:
            return None
        taken += 1
        return next(kernels, None)

    return next_kernel


def submit_all(address, next_kernel: Callable[[], Optional[object]],
               out: List[Outcome]) -> None:
    """One closed-loop session: submit ``next_kernel()``, each after the
    previous verdict, until it returns ``None``."""
    from repro.serve.client import ServeClient, ServeError

    with ServeClient(address, timeout=REQUEST_TIMEOUT,
                     overload_retries=0) as client:
        client.hello()
        for kernel in iter(next_kernel, None):
            started = time.perf_counter()
            try:
                verdict = client.submit(kernel.source)
            except ServeError as error:
                now = time.perf_counter()
                out.append(Outcome(kernel, kernel.source, now - started,
                                   now, error=error.code))
                if error.code in ("timeout", "connection-closed"):
                    return
                continue
            now = time.perf_counter()
            out.append(Outcome(
                kernel, kernel.source, now - started, now, verdict=verdict,
                results=[(r["property"], r["status"] == "proved",
                          r["source"])
                         for r in verdict["report"]["results"]],
            ))


def run_clients(address, sessions: Callable[[float], list]
                ) -> Tuple[List[Outcome], float, float]:
    """Run one closed-loop client thread per session of
    ``sessions(start)``; returns the outcomes, the start and the end of
    the measured phase."""
    outcomes: List[Outcome] = []
    started = time.perf_counter()
    threads = [threading.Thread(target=submit_all,
                                args=(address, next_kernel, outcomes))
               for next_kernel in sessions(started)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, started, max((o.done for o in outcomes),
                                  default=time.perf_counter())


def warm_up(daemon: Daemon, kernels: List[object]) -> bool:
    """Submit each kernel once; returns whether every verdict was right."""
    outcomes: List[Outcome] = []
    submit_all(daemon.address, functools.partial(next, iter(kernels), None),
               outcomes)
    return (len(outcomes) == len(kernels)
            and all(o.correct for o in outcomes))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(outcomes: List[Outcome], started: float, ended: float,
               cpu_s: float, peak_rss_mb: float, setups: List[float],
               shutdowns: List[float]) -> Dict[str, float]:
    answered = [o for o in outcomes if o.error is None]
    latencies = [o.latency * 1000.0 for o in answered] or [0.0]
    failed = sum(1 for o in outcomes if not o.correct)
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "throughput_rps": share(len(answered), ended - started),
        "cpu_ms_per_req": share(cpu_s * 1000.0, len(answered)),
        "success_ratio": 1.0 - share(failed, len(outcomes)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "shutdown_s": statistics.median(shutdowns),
    }


def frame_metrics(outcomes: List[Outcome], prior: List[str]
                  ) -> Dict[str, float]:
    """Per-layer metrics read from verdicts, plus the workload's own
    properties; ``prior`` are sources sent before the measured phase."""
    answered = [o for o in outcomes if o.error is None]
    n = len(answered) or 1
    out: Dict[str, float] = {}
    for phase in ("admission_ms", "queue_ms", "verify_ms", "fanout_ms"):
        values = [o.verdict["breakdown"][phase] for o in answered
                  if "breakdown" in o.verdict] or [0.0]
        out[f"serve.{phase}.p50"] = statistics.median(values)
        out[f"serve.{phase}.p90"] = p90(values)
    counters: Dict[str, int] = {}
    for o in answered:
        for name, value in o.verdict.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    hits = counters.get("trace.fragment.hit", 0)
    out["engine.fragment_hit_ratio"] = share(
        hits, hits + counters.get("trace.fragment.searched", 0))
    sources = [source for o in answered for _, _, source in o.results]
    out["engine.source_store_share"] = share(sources.count("store"),
                                             len(sources))
    out["engine.source_searched_share"] = share(sources.count("searched"),
                                                len(sources))
    out["serve.coalesced_share"] = share(
        sum(1 for o in answered if o.verdict.get("coalesced", 1) > 1), n)
    out["protocol.verdict_bytes"] = sum(
        len(json.dumps(o.verdict, sort_keys=True,
                       separators=(",", ":")).encode("utf-8"))
        for o in answered if o.verdict) / n
    seen = set(prior)
    repeats = 0
    for o in sorted(outcomes, key=lambda o: o.done - o.latency):
        repeats += o.source in seen
        seen.add(o.source)
    out["workload.repeat_share"] = share(repeats, len(outcomes))
    out["workload.unproved_share"] = share(
        sum(1 for o in answered if not all(p for _, p, _ in o.results)), n)
    out["workload.changed_fragments_per_req"] = sum(
        o.verdict["fragments"]["changed"] if "fragments" in o.verdict
        else o.kernel.fragments for o in answered) / n
    out["workload.properties_per_req"] = sum(
        len(o.results) for o in answered) / n
    out["workload.source_bytes_per_req"] = sum(
        len(o.source.encode("utf-8")) for o in answered) / n
    return out


def span_metrics(totals: Dict[str, list], requests: int
                 ) -> Dict[str, float]:
    """``B.calls`` and ``B.self_ms`` per request for every boundary, from
    a traced child's ``[calls, self seconds, hits]`` totals."""
    out: Dict[str, float] = {}
    for boundary in BOUNDARIES:
        calls, seconds, hits = totals[boundary.name]
        out[f"{boundary.name}.calls"] = share(calls, requests)
        out[f"{boundary.name}.self_ms"] = share(seconds * 1000.0, requests)
        if boundary.counts_hits:
            out[f"{boundary.name}.hit_ratio"] = share(hits, calls)
    return out


def unattributed(outcomes: List[Outcome], spans: List[list]
                 ) -> Dict[str, float]:
    """``serve.verify_ms`` of the traced phase's verdict frames minus
    the self time of the prover-thread spans inside those verify
    windows, per request.

    The daemon tags a verify group's spans with its submit ids.  Its
    window opens just before the group's first span (``parse_program``)
    and lasts the group's ``verify_ms``; the fan-out and housekeeping
    after it fall outside.  Waiters coalesced onto one verify share its
    window, so each counts its share of it."""
    answered = [o for o in outcomes if "breakdown" in o.verdict]
    window_ms = {o.verdict["submit_id"]: o.verdict["breakdown"]["verify_ms"]
                 for o in answered}
    groups: Dict[str, List[list]] = {}
    for span in spans:
        if span[THREAD] == PROVER_THREAD and span[REQUEST]:
            groups.setdefault(span[REQUEST], []).append(span)
    covered_s = 0.0
    for request, members in groups.items():
        window = window_ms.get(request.split(",")[0])
        if window is not None:
            end = members[0][START] + window / 1000.0
            covered_s += sum(self_time(span) for span in members
                             if span[START] < end)
    verify_ms = sum(o.verdict["breakdown"]["verify_ms"]
                    / o.verdict.get("coalesced", 1) for o in answered)
    covered_ms = covered_s * 1000.0
    return {"serve.unattributed_ms":
            share(verify_ms - covered_ms, len(answered)),
            "serve.verify_attributed_share": share(covered_ms, verify_ms)}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """One measured phase and what it needs for metrics."""

    outcomes: List[Outcome]
    started: float
    ended: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float


def daemon_sessions(workload: str, seed: int, paper, mutants,
                    seconds: float):
    """``start -> [next_kernel, ...]``, one callable per client.

    Each session submits a fixed seeded sequence of whole rounds
    (warm-resubmit) or episodes (edit-loop), so every run and phase does
    the same work however fast the host is; both take about ``seconds``
    on a loaded 2-vCPU virtual machine and about half that on an idle
    one."""
    originals = list(paper.values())
    if workload == "warm-resubmit":
        order = shuffled_rounds(seed, len(originals))
        rounds = max(1, round(seconds * WARM_ROUND_RATE))
        plans = [[originals[next(order)]
                  for _ in range(rounds * len(originals))]]
        step = len(originals)
    else:
        walks = [EditWalk(seed * 1000 + i, originals,
                          [mutants[name] for name in paper])
                 for i in range(EDIT_SESSIONS)]
        step = walks[0].episode
        episodes = max(1, round(seconds * EDIT_EPISODE_RATE))
        plans = [[walk.next() for _ in range(episodes * step)]
                 for walk in walks]
    return lambda start: [until(start + TIME_LIMIT * seconds, iter(plan),
                                step)
                          for plan in plans]


def daemon_phase(daemon: Daemon, workload: str, seed: int, paper, mutants,
                 seconds: float) -> Tuple[Phase, bool]:
    """Warm the daemon up, then run the measured closed loop."""
    warm_ok = warm_up(daemon, list(paper.values()))
    setup_s = time.perf_counter() - daemon.started
    sessions = daemon_sessions(workload, seed, paper, mutants, seconds)
    before = daemon.command("usage")
    daemon.command("mark")
    outcomes, started, ended = run_clients(daemon.address, sessions)
    daemon.command("mark")
    after = daemon.command("usage")
    return Phase(outcomes, started, ended,
                 after["cpu_s"] - before["cpu_s"], after["peak_rss_mb"],
                 setup_s), warm_ok


def run_daemon_workload(args, tmp: Path, children: list) -> dict:
    paper = paper_kernels()
    mutants = mutant_kernels() if args.workload == "edit-loop" else {}
    prior = [k.source for k in paper.values()]
    daemons: List[Daemon] = []
    exits: List[threading.Thread] = []

    def start(trace: bool = False) -> Daemon:
        daemon = Daemon(tmp, trace)
        children.append(daemon)
        daemons.append(daemon)
        return daemon

    # Each shutdown request goes out while no other set-up runs; the
    # closes (10 s each today) then overlap the next set-ups.
    daemon = start()
    phase, correct = daemon_phase(daemon, args.workload, args.seed, paper,
                                  mutants, args.seconds)
    exits.append(daemon.shutdown())
    if not args.trace:
        setups = [phase.setup_s]
        for _ in range(SETUP_REPEATS - 1):
            extra = start()
            correct &= warm_up(extra, list(paper.values()))
            setups.append(time.perf_counter() - extra.started)
            exits.append(extra.shutdown())
        for thread in exits:
            thread.join()
        metrics = end_to_end(phase.outcomes, phase.started, phase.ended,
                             phase.cpu_s, phase.peak_rss_mb, setups,
                             [d.stopped[0] for d in daemons])
        return result(phase.outcomes, correct, metrics, trace=False)

    traced_daemon = start(trace=True)
    traced, traced_ok = daemon_phase(traced_daemon, args.workload,
                                     args.seed, paper, mutants,
                                     args.seconds)
    correct &= traced_ok
    metrics = frame_metrics(phase.outcomes, prior)
    untraced_p50 = statistics.median(o.latency for o in phase.outcomes)
    traced_p50 = statistics.median(o.latency for o in traced.outcomes)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    if args.workload == "warm-resubmit":
        ref, ref_ok = inprocess_reference(args, tmp, paper, children)
        correct &= ref_ok
        metrics["engine.inprocess_same_config_ms"] = ref * 1000.0
        metrics["serve.overhead_ratio"] = untraced_p50 / ref
    else:
        metrics.update(dict.fromkeys(WARM_RESUBMIT_ONLY, 0.0))
    exits.append(traced_daemon.shutdown())
    for thread in exits:
        thread.join()
    closed = traced_daemon.stopped[1]
    metrics.update(span_metrics(closed["boundaries"], len(traced.outcomes)))
    metrics.update(unattributed(traced.outcomes, read_spans()))
    metrics["serve.threads_after_close"] = max(
        d.stopped[1]["threads_after_close"] for d in daemons)
    return result(phase.outcomes + traced.outcomes, correct, metrics,
                  trace=True)


def inprocess_reference(args, tmp: Path, paper, children: list
                        ) -> Tuple[float, bool]:
    """Median in-process latency, seconds, of the warm-resubmit inputs
    under the daemon's store and sink configuration, and whether every
    verdict matched the oracle."""
    kernels = list(paper.values())
    order = shuffled_rounds(args.seed, len(kernels))
    sequence = [[next(order), ""] for _ in range(request_budget(args))]
    inputs = write_json(tmp, {"sources": [k.source for k in kernels],
                              "sequence": sequence})
    runner = Runner(tmp, "warm", inputs, args.seconds)
    children.append(runner)
    done = runner.measure()
    runner.shutdown()
    correct = all(
        kernels[index].check([(name, proved) for name, proved, _ in results])
        for index, _, results in done["requests"])
    return (statistics.median(latency for _, latency, _ in done["requests"]),
            correct)


def request_budget(args) -> int:
    """More requests than a runner can finish in one measured phase."""
    return int(args.seconds * 2000) + 1000


def write_json(tmp: Path, data: dict) -> Path:
    handle, path = tempfile.mkstemp(dir=tmp, suffix=".json")
    with os.fdopen(handle, "w", encoding="utf-8") as out:
        json.dump(data, out)
    return Path(path)


def cold_inputs(seed: int, count: int, bases) -> dict:
    order = shuffled_rounds(seed, len(bases))
    return {"sources": [k.source for k in bases],
            "sequence": [[next(order), f"c{seed}n{n}"]
                         for n in range(count)]}


def runner_outcomes(records: list, bases, inputs: dict) -> List[Outcome]:
    """Outcomes of ``records``, the requests of ``inputs`` from its
    first one on."""
    outcomes = []
    clock = 0.0
    for n, (index, latency, results) in enumerate(records):
        clock += latency
        kernel = bases[index]
        outcomes.append(Outcome(
            kernel, renamed(kernel.source, inputs["sequence"][n][1]),
            latency, clock, results=[tuple(r) for r in results]))
    return outcomes


def run_cold_batch(args, tmp: Path, children: list) -> dict:
    """The untraced phase runs ``seconds / RUNNER_REPEATS`` in each of
    :data:`RUNNER_REPEATS` fresh runners in turn, each going on where
    the last stopped, so set-up and exit are sampled across the whole
    run; the traced phase runs ``seconds`` in one runner."""
    bases = cold_bases()
    inputs = cold_inputs(args.seed, request_budget(args), bases)
    inputs_file = write_json(tmp, inputs)

    def start(seconds: float, trace: bool = False) -> Runner:
        runner = Runner(tmp, "cold", inputs_file, seconds, trace)
        children.append(runner)
        return runner

    records: list = []
    setups, shutdowns = [], []
    wall_s = cpu_s = peak_rss_mb = 0.0
    for _ in range(RUNNER_REPEATS):
        runner = start(args.seconds / RUNNER_REPEATS)
        done = runner.measure(len(records))
        setups.append(runner.setup_s)
        shutdowns.append(runner.shutdown())
        records += done["requests"]
        wall_s += done["wall_s"]
        cpu_s += done["cpu_s"]
        peak_rss_mb = max(peak_rss_mb, done["peak_rss_mb"])
    outcomes = runner_outcomes(records, bases, inputs)
    if not args.trace:
        metrics = end_to_end(outcomes, 0.0, wall_s, cpu_s, peak_rss_mb,
                             setups, shutdowns)
        return result(outcomes, True, metrics, trace=False)
    traced = start(args.seconds, trace=True)
    traced_done = traced.measure()
    traced.shutdown()
    traced_outcomes = runner_outcomes(traced_done["requests"], bases, inputs)
    metrics = frame_metrics(outcomes, [])
    metrics["trace.overhead_ratio"] = (
        statistics.median(o.latency for o in traced_outcomes)
        / statistics.median(o.latency for o in outcomes))
    metrics.update(span_metrics(traced_done["boundaries"],
                                len(traced_outcomes)))
    metrics.update(dict.fromkeys(DAEMON_ONLY + WARM_RESUBMIT_ONLY, 0.0))
    return result(outcomes + traced_outcomes, True, metrics, trace=True)


def result(outcomes: List[Outcome], correct: bool,
           metrics: Dict[str, float], trace: bool) -> dict:
    """The result line: every metric of this mode with its unit."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        catalog = json.load(handle)
    wanted = catalog["per_layer"] if trace else catalog["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not computed: {', '.join(missing)}")
    failed = sum(1 for o in outcomes if not o.correct)
    return {
        "correct": correct and failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("warm-resubmit", "edit-loop", "cold-batch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def expire(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_TIMEOUT}s")

    signal.signal(signal.SIGALRM, expire)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    signal.alarm(RUN_TIMEOUT)
    scratch_root = ROOT / ".e2ebench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))
    children: list = []
    try:
        run = (run_cold_batch if args.workload == "cold-batch"
               else run_daemon_workload)
        outcome = run(args, tmp, children)
    finally:
        signal.alarm(0)
        for child in children:
            child.kill()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
