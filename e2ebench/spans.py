"""Spans around the program's public layer boundaries.

The traced run wraps each boundary in :data:`BOUNDARIES` from outside
the program: a function is replaced in every ``repro`` module that
holds it (so each caller's own lookup sees the wrapper), a method on
its class.  A span records its name, start, end, parent span, thread
and request id.  Spans stay in memory until the run ends.

A call into a boundary that is already open on the same thread (a
recursive ``fingerprint``, ``prove_trace_property`` calling
``prove_trace_exchange``) belongs to the open span and records none of
its own, so ``calls`` counts entries into the layer.  A span's self
time is its duration minus the time its direct children cover; each
closing span adds its duration to its parent, so self times need no
second pass over hundreds of thousands of spans.

A traced run writes its spans to :data:`SPANS_FILE` when it ends.
"""

from __future__ import annotations

import importlib
import json
import math
import select
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: where a traced run leaves its spans, one JSON object a line
SPANS_FILE = Path(__file__).resolve().parent / "last_spans.jsonl"
#: the ``repro serve`` daemon's prover thread, which runs every verify
PROVER_THREAD = "serve-prover"


@dataclass(frozen=True)
class Boundary:
    """One traced layer boundary (``README.md`` maps each to the
    end-to-end metrics and workloads it should move)."""

    name: str
    #: ``module:function`` or ``module:Class.method``
    targets: Tuple[str, ...]
    #: a non-``None`` result is a cache hit (reported as a hit ratio)
    counts_hits: bool = False


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("frontend.parse_program",
             ("repro.frontend.parser:parse_program",)),
    Boundary("proofstore.fingerprint",
             ("repro.prover.proofstore:fingerprint",)),
    Boundary("proofstore.obligation_key",
             ("repro.prover.proofstore:obligation_key",)),
    Boundary("proofstore.dependency_digest",
             ("repro.prover.proofstore:dependency_digest",)),
    Boundary("proofstore.derivation_key",
             ("repro.prover.proofstore:derivation_key",)),
    Boundary("proofstore.get",
             ("repro.prover.proofstore:ProofStore.get",), counts_hits=True),
    Boundary("proofstore.put",
             ("repro.prover.proofstore:ProofStore.put",)),
    Boundary("incremental.fragment_digests",
             ("repro.prover.incremental:fragment_digests",)),
    Boundary("incremental.invalidation",
             ("repro.prover.incremental:InvalidationMap.record_program",
              "repro.prover.incremental:InvalidationMap.invalidated_keys")),
    Boundary("compile.plan_for",
             ("repro.symbolic.compile:plan_for",)),
    Boundary("compile.cached_result",
             ("repro.symbolic.compile:CompiledPlan.cached_result",),
             counts_hits=True),
    Boundary("behabs.generic_step",
             ("repro.symbolic.behabs:generic_step",)),
    Boundary("engine.plan",
             ("repro.prover.engine:Verifier.plan",)),
    Boundary("engine.prove_property",
             ("repro.prover.engine:Verifier.prove_property",)),
    Boundary("search.trace",
             ("repro.prover.trace_tactics:prove_trace_property",
              "repro.prover.trace_tactics:prove_trace_base",
              "repro.prover.trace_tactics:prove_trace_exchange")),
    Boundary("search.ni",
             ("repro.prover.ni:check_ni_base",
              "repro.prover.ni:check_ni_exchange")),
    Boundary("solver.entail_batch",
             ("repro.symbolic.solver:entail_batch",)),
    Boundary("solver.facts_for",
             ("repro.symbolic.solver:facts_for",)),
    Boundary("checker.trace",
             ("repro.prover.checker:check_trace_proof",
              "repro.prover.checker:trace_proof_complaints",
              "repro.prover.checker:trace_base_complaints",
              "repro.prover.checker:trace_exchange_complaints")),
    Boundary("checker.ni",
             ("repro.prover.checker:check_ni_proof",
              "repro.prover.checker:ni_proof_complaints")),
    Boundary("engine.report_to_dict",
             ("repro.prover.engine:VerificationReport.to_dict",)),
    Boundary("residue.residue_for",
             ("repro.serve.residue:residue_for",)),
    Boundary("protocol.send_message",
             ("repro.serve.protocol:send_message",)),
    Boundary("protocol.recv_message",
             ("repro.serve.protocol:recv_message",)),
    Boundary("housekeeping.maybe_collect",
             ("repro.serve.housekeeping:CacheGovernor.maybe_collect",)),
    Boundary("obs.merge_export",
             ("repro.obs.telemetry:Telemetry.merge_export",)),
)

#: Span fields, in record order (CHILDREN: seconds covered by children).
NAME, START, END, PARENT, THREAD, REQUEST, HIT, CHILDREN = range(8)


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()

    def set_request(self, request: Optional[str]) -> None:
        """Tag spans this thread opens from now on with ``request``."""
        self._local.request = request

    def wrap(self, name: str, fn, request_of=None, counts_hits=False):
        """``fn`` wrapped in a span named ``name``.  When the thread has
        no request tag, ``request_of(args)`` names the request, or
        without it the active ``repro.obs`` sink's ``submit_id`` tag
        does; with ``counts_hits`` the span records whether the result
        is a hit."""
        from repro.obs import active as active_sink

        spans = self.spans
        local = self._local
        clock = time.monotonic

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.open = set()
            if name in local.open:
                return fn(*args, **kwargs)
            request = getattr(local, "request", None)
            if request is None and request_of is not None:
                request = request_of(args)
            elif request is None:
                sink = active_sink()
                if sink is not None:
                    request = sink.tags.get("submit_id")
            parent = stack[-1] if stack else None
            span = [name, clock(), None, parent,
                    threading.current_thread().name, request, None, 0.0]
            spans.append(span)
            stack.append(span)
            local.open.add(name)
            try:
                result = fn(*args, **kwargs)
                if counts_hits:
                    span[HIT] = result is not None
                return result
            finally:
                span[END] = clock()
                if parent is not None:
                    parent[CHILDREN] += span[END] - span[START]
                stack.pop()
                local.open.discard(name)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def window(self, since: float = -math.inf,
               until: float = math.inf) -> List[list]:
        """Finished spans that started in ``[since, until)``."""
        return [span for span in list(self.spans)
                if span[END] is not None and since <= span[START] < until]


def self_time(span: list) -> float:
    """Seconds of ``span`` not covered by its direct children."""
    return span[END] - span[START] - span[CHILDREN]


def per_boundary(spans: List[list]) -> Dict[str, List[float]]:
    """Boundary name -> [calls, total self seconds, hits]."""
    totals = {b.name: [0, 0.0, 0] for b in BOUNDARIES}
    for span in spans:
        entry = totals[span[NAME]]
        entry[0] += 1
        entry[1] += self_time(span)
        entry[2] += bool(span[HIT])
    return totals


def tag_groups(spans: List[list], thread: str) -> None:
    """Give each untagged span of ``thread`` the request of the verify
    group it belongs to.  A group opens with a root ``parse_program``
    span; its spans outside the tagged sink (parsing, fragment digests,
    residue, and the housekeeping after it) take the first request
    tagged inside it."""
    groups: List[List[list]] = []
    for span in sorted((s for s in spans if s[THREAD] == thread),
                       key=lambda s: s[START]):
        if not groups or (span[NAME] == "frontend.parse_program"
                          and span[PARENT] is None):
            groups.append([])
        groups[-1].append(span)
    for group in groups:
        request = next((s[REQUEST] for s in group if s[REQUEST]), None)
        for span in group:
            if span[REQUEST] is None:
                span[REQUEST] = request


def write_spans(spans: List[list]) -> None:
    """Write ``spans`` to :data:`SPANS_FILE` as JSON lines; a parent is
    the line index of its span (``null`` for a root or a parent outside
    the list)."""
    index = {id(span): i for i, span in enumerate(spans)}
    with open(SPANS_FILE, "w", encoding="utf-8") as handle:
        for span in spans:
            parent = span[PARENT]
            handle.write(json.dumps({
                "name": span[NAME], "start": span[START], "end": span[END],
                "parent": None if parent is None else index.get(id(parent)),
                "thread": span[THREAD], "request": span[REQUEST],
                "hit": span[HIT],
            }) + "\n")


def read_spans() -> List[list]:
    """The spans :func:`write_spans` left in :data:`SPANS_FILE`, as
    records again (a parent always precedes its children)."""
    spans: List[list] = []
    with open(SPANS_FILE, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            parent = (None if record["parent"] is None
                      else spans[record["parent"]])
            span = [record["name"], record["start"], record["end"], parent,
                    record["thread"], record["request"], record["hit"], 0.0]
            if parent is not None:
                parent[CHILDREN] += span[END] - span[START]
            spans.append(span)
    return spans


def _wait_readable(args) -> None:
    """Block until the socket has data, so a ``recv_message`` span
    times reading and decoding a frame, not waiting for the peer."""
    select.select([args[0]], [], [])


def _recv_wrapper(recorder: Recorder, name: str, fn):
    traced = recorder.wrap(name, fn, request_of=_submit_id)

    def recv(*args, **kwargs):
        _wait_readable(args)
        return traced(*args, **kwargs)

    recv.__wrapped__ = fn
    return recv


def _submit_id(args) -> Optional[str]:
    """The submit id of a frame being sent (the prover's sink tag does
    not name the request of a connection thread's frame)."""
    payload = args[1] if len(args) > 1 else None
    return payload.get("submit_id") if isinstance(payload, dict) else None


def install(recorder: Recorder) -> None:
    """Wrap every boundary target.  Import the modules whose callers
    should be traced first: only modules already in ``sys.modules`` are
    rewired."""
    for boundary in BOUNDARIES:
        for target in boundary.targets:
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, recorder.wrap(
                    boundary.name, getattr(cls, method),
                    counts_hits=boundary.counts_hits))
                continue
            original = getattr(module, qualname)
            if boundary.name == "protocol.recv_message":
                wrapper = _recv_wrapper(recorder, boundary.name, original)
            elif boundary.name == "protocol.send_message":
                wrapper = recorder.wrap(boundary.name, original,
                                        request_of=_submit_id)
            else:
                wrapper = recorder.wrap(boundary.name, original,
                                        counts_hits=boundary.counts_hits)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

