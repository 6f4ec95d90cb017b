"""The verification engine: REFLEX's pushbutton entry point.

``Verifier(spec).verify_all()`` is the reproduction of the paper's headline
workflow: the user writes a program and its properties, presses the button,
and every property is either *proved* (with a machine-checked derivation)
or *rejected* with a diagnostic explaining which obligation got stuck —
the paper's section 6.3 recounts how exactly these diagnostics exposed two
false web-server policies.

Verification runs as a staged pipeline (see :mod:`repro.prover.pipeline`):

* **plan** — enumerate the property's obligations, each with a stable
  content-addressed key;
* **search** — discharge each obligation (consulting the persistent
  :mod:`proof store <repro.prover.proofstore>` first when one is
  configured), emitting a derivation;
* **check** — validate the assembled derivation through the independent
  :mod:`checker <repro.prover.checker>`.

``verify_all()`` runs the properties serially in the calling thread.
Every stage reports counters and spans to :mod:`repro.obs` when a
telemetry sink is installed.

The engine also hosts the optimizations of paper section 6.4, each behind a
:class:`ProverOptions` switch so that the ablation benchmark can measure
their effect:

* ``memoize_step`` — compute the symbolic :class:`GenericStep` once per
  program instead of once per property;
* ``syntactic_skip`` — discharge exchanges/invariant cases by the cheap
  syntactic check where possible.

The paper's third optimization, saving subproofs at key cut points, has
nothing to reuse here: no invariant or bound recurs within one kernel's
verification (DESIGN.md section 6 gives the counts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..lang.errors import ProofCheckFailure, ProofSearchFailure
from ..props.spec import (
    NonInterference,
    Property,
    SpecifiedProgram,
    TraceProperty,
)
from ..symbolic import cache as symcache
from ..symbolic import compile as symcompile
from ..symbolic import solver as symsolver
from ..symbolic.behabs import GenericStep, generic_step
from .checker import (
    check_ni_proof,
    check_trace_proof,
    ni_proof_complaints,
    record_step_proofs,
    trace_base_complaints,
    trace_exchange_complaints,
    trace_proof_complaints,
)
from .derivation import (
    BaseProof,
    BoundedProof,
    BoundedSpec,
    InvariantProof,
    InvariantSpec,
    StepProof,
    TracePropertyProof,
)
from .invariants import prove_bounded, prove_invariant
from .ni import (
    Labeling,
    NIProof,
    PathVerdict,
    build_labeling,
    check_ni_base,
    check_ni_exchange,
)
from .obligations import scheme_of
from .pipeline import Obligation, plan_property
from .proofstore import (
    Part,
    ProgramRender,
    ProofStore,
    StoreEntry,
    derivation_key,
    fingerprint,
    fragment_digests,
    render_program,
    rendered_key,
    trace_fragment_keys,
)
from .trace_tactics import (
    TacticContext,
    prove_trace_base,
    prove_trace_exchange,
    prove_trace_property,
)


@dataclass
class ProverOptions:
    """Switches for the section-6.4 optimizations plus proof checking.

    ``proof_store`` names a directory for the persistent content-addressed
    proof cache; ``None`` (the default) disables it.
    """

    syntactic_skip: bool = True
    memoize_step: bool = True
    check_proofs: bool = True
    #: consult the process-wide symbolic caches (interned-term simplify
    #: memo, DNF memo, solver query cache — see docs/performance.md);
    #: semantically invisible, so it does not shape obligation keys
    term_cache: bool = True
    #: execute compiled proof plans: the per-kernel compiled symbolic
    #: step (closure form, reused across Verifier instances via
    #: :mod:`repro.symbolic.compile`), the memoized obligation-key
    #: table, the hot in-process result cache, and the solver's
    #: prefix-batched fact construction.  Semantically invisible —
    #: verdicts, derivations and obligation keys are bit-for-bit
    #: identical with it off (``--no-compile`` on the CLI, asserted by
    #: the compile differential tests) — so it does not shape
    #: obligation keys.
    compile_plans: bool = True
    proof_store: Optional[str] = None
    #: absolute ``time.monotonic()`` deadline for the whole run; a
    #: property not started by then becomes a diagnostic failure verdict
    #: carrying :data:`DEADLINE_MESSAGE`, so callers get a *partial* report —
    #: whatever was proved inside the budget — instead of a hang.
    #: ``None`` (the default) disables the budget.  Execution policy
    #: only: it never shapes obligation keys or derivations.
    deadline: Optional[float] = None


#: Diagnostic-error prefix for work condemned by ``ProverOptions.deadline``
#: (the serve layer's residue rendering keys off it).
DEADLINE_MESSAGE = "deadline expired before this proof completed"


@dataclass
class PropertyResult:
    """The outcome of verifying one property."""

    property: Property
    status: str  # "proved" | "failed"
    seconds: float
    proof: Optional[Union[TracePropertyProof, NIProof]] = None
    error: Optional[str] = None
    checked: bool = False
    #: for failed trace properties: an instantiation of the stuck goal
    #: (see :mod:`repro.prover.counterexample`), when the model finder
    #: succeeds
    counterexample: Optional[object] = None
    #: where the derivation came from: "searched", "store" (every
    #: obligation served by the persistent proof store), or
    #: "revalidated" (incremental reuse)
    source: str = "searched"

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    def derivation_key(self) -> Optional[str]:
        """Content address of the derivation (``None`` for failures).

        Identical across cold/warm-store, compiled/interpreted and
        cached/uncached runs — the differential tests assert exactly
        that.
        """
        if self.proof is None:
            return None
        return derivation_key(self.proof)

    def to_dict(self) -> dict:
        """JSON-ready form of the result."""
        return {
            "property": self.property.name,
            "status": self.status,
            "seconds": round(self.seconds, 6),
            "checked": self.checked,
            "source": self.source,
            "derivation_key": self.derivation_key(),
            "error": self.error,
        }

    def __str__(self) -> str:
        mark = "✓" if self.proved else "✗"
        extra = "" if self.proved else f" — {self.error}"
        return f"{mark} {self.property.name} ({self.seconds:.3f}s){extra}"


@dataclass
class VerificationReport:
    """Results for every property of one program.

    ``total_seconds`` sums the per-property times; ``wall_seconds`` is
    the report-level elapsed time.
    """

    program_name: str
    results: List[PropertyResult] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def all_proved(self) -> bool:
        return all(r.proved for r in self.results)

    @property
    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    def result_named(self, name: str) -> PropertyResult:
        """The result for property ``name``; raises :class:`KeyError`
        naming the available properties otherwise."""
        for r in self.results:
            if r.property.name == name:
                return r
        available = ", ".join(
            sorted(r.property.name for r in self.results)
        ) or "(none)"
        raise KeyError(
            f"no result for property {name!r}; available: {available}"
        )

    def to_dict(self) -> dict:
        """JSON-ready form of the report."""
        return {
            "program": self.program_name,
            "all_proved": self.all_proved,
            "wall_seconds": round(self.wall_seconds, 6),
            "total_seconds": round(self.total_seconds, 6),
            "results": [r.to_dict() for r in self.results],
        }

    def __str__(self) -> str:
        lines = [f"verification report for {self.program_name}:"]
        lines.extend(f"  {r}" for r in self.results)
        verdict = "all proved" if self.all_proved else "FAILURES PRESENT"
        lines.append(
            f"  {len(self.results)} properties, {verdict}, "
            f"{self.total_seconds:.3f}s total"
        )
        return "\n".join(lines)


class Verifier:
    """Verifies the properties of one specified program."""

    def __init__(self, spec: SpecifiedProgram,
                 options: Optional[ProverOptions] = None) -> None:
        self.spec = spec
        self.options = options or ProverOptions()
        self._step_cache: Optional[GenericStep] = None
        self._labeling_cache: Dict[str, Labeling] = {}
        # Content addresses, each computed once per Verifier (that is,
        # once per submission): one render of every AST subtree feeds
        # the program digest and the slice digests; each property is
        # rendered once for all its keys.
        self._render: Optional[ProgramRender] = None
        self._program_digest: Optional[str] = None
        self._slice_digests: Optional[Dict[Part, str]] = None
        #: id(property) → (property, its fingerprint); the entry pins
        #: the property so the id cannot be reused while memoized
        self._prop_renders: Dict[int, Tuple[Property, str]] = {}
        #: property fingerprint → its fragment keys
        self._fragment_keys: Dict[str, Dict[Part, str]] = {}
        self._plan: Optional[symcompile.CompiledPlan] = None
        self._store: Optional[ProofStore] = (
            ProofStore(self.options.proof_store)
            if self.options.proof_store else None
        )

    # -- building blocks -------------------------------------------------------

    def compiled_plan(self) -> symcompile.CompiledPlan:
        """The process-wide compiled plan for this kernel (keyed by the
        program content digest — see :mod:`repro.symbolic.compile`)."""
        if self._plan is None:
            self._plan = symcompile.plan_for(self.program_digest())
        return self._plan

    def _hot_results(self) -> bool:
        """Whether the compiled plan's hot result cache may serve and
        record obligation results.

        Disabled while a telemetry sink is installed: serving a result
        without re-running the search would silently change the
        search-stage counters that the telemetry differential tests pin
        down.
        """
        return self.options.compile_plans and obs.active() is None

    def generic_step(self) -> GenericStep:
        """The symbolic inductive step (memoized per section 6.4).

        With ``compile_plans`` the step is built by the compiled
        executor and shared across Verifier instances through the
        process-wide plan cache; plan-level reuse is bypassed under an
        active telemetry sink so instrumented runs still observe the
        build."""
        if self.options.memoize_step:
            if self._step_cache is None:
                if self.options.compile_plans and obs.active() is None:
                    self._step_cache = \
                        self.compiled_plan().step_for(self.spec.info)
                else:
                    with obs.span("step.build", program=self.spec.name):
                        self._step_cache = self._build_step()
            return self._step_cache
        return self._build_step()

    def _build_step(self) -> GenericStep:
        if self.options.compile_plans:
            executor = symcompile.compiled_executor(self.spec.info)
            return generic_step(self.spec.info, executor=executor)
        return generic_step(self.spec.info)

    def _program_render(self) -> ProgramRender:
        if self._render is None:
            self._render = render_program(self.spec.program)
        return self._render

    def program_digest(self) -> str:
        """Content digest of the program AST (computed once, shared by
        every obligation key)."""
        if self._program_digest is None:
            self._program_digest = self._program_render().digest()
        return self._program_digest

    def slice_digests(self) -> Dict[Part, str]:
        """The dependency digest of every fragment slice (computed once,
        from the same subtree renders as :meth:`program_digest`): the
        base slice under ``None`` plus one entry per exchange.  The
        fragment keys, the invalidation index and the serve daemon's
        session diffs all read this one table."""
        if self._slice_digests is None:
            self._slice_digests = fragment_digests(self._program_render())
        return self._slice_digests

    def _property_render(self, prop: Property) -> str:
        """:func:`fingerprint` of ``prop``, rendered once per Verifier."""
        hit = self._prop_renders.get(id(prop))
        if hit is None:
            hit = self._prop_renders[id(prop)] = (prop, fingerprint(prop))
        return hit[1]

    def _invariant_prover(self, spec: InvariantSpec) -> InvariantProof:
        return prove_invariant(
            self.generic_step(), spec,
            syntactic_skip=self.options.syntactic_skip,
        )

    def _bounded_prover(self, spec: BoundedSpec) -> BoundedProof:
        return prove_bounded(self.generic_step(), spec)

    def _tactic_context(self) -> TacticContext:
        return TacticContext(
            step=self.generic_step(),
            invariant_prover=self._invariant_prover,
            bounded_prover=self._bounded_prover,
            syntactic_skip=self.options.syntactic_skip,
        )

    # -- pipeline: plan --------------------------------------------------------

    def obligation_key_for(self, prop: Property,
                           part: Optional[Tuple[str, str]]) -> str:
        """The content address of one obligation, served from the
        compiled plan's memo table when plans are enabled (the
        fingerprint is the hot path of planning; the memoized value is
        bit-for-bit the uncached one)."""
        def compute() -> str:
            return rendered_key(self.program_digest(),
                                self._property_render(prop),
                                self.options, part)

        if self.options.compile_plans:
            return self.compiled_plan().obligation_key_for(
                prop, self.options.syntactic_skip, part, compute,
            )
        return compute()

    def plan(self, prop: Property) -> Tuple[Obligation, ...]:
        """Pipeline stage one: the obligations of ``prop``, each with its
        content-addressed key."""
        return plan_property(
            self.spec.program, prop, self.options, self.program_digest(),
            key_for=lambda part: self.obligation_key_for(prop, part),
        )

    def ni_labeling(self, prop: NonInterference) -> Labeling:
        """The (memoized) executable labeling θc/θv for ``prop``."""
        cached = self._labeling_cache.get(prop.name)
        if cached is None:
            cached = build_labeling(self.generic_step(), prop)
            self._labeling_cache[prop.name] = cached
        return cached

    # -- pipeline: search ------------------------------------------------------

    def ni_part(self, prop: NonInterference,
                part: Optional[Tuple[str, str]]
                ) -> Tuple[object, bool]:
        """Discharge one NI obligation (the base condition when ``part``
        is ``None``, one exchange otherwise), consulting the proof store
        first.  Returns ``(payload, from_store)``; raises
        :class:`ProofSearchFailure` on violation."""
        kind = "ni-base" if part is None else "ni-exchange"
        where = "base" if part is None else f"{part[0]}=>{part[1]}"
        obs.event("obligation.start", property=prop.name,
                  obligation=kind, part=where)
        registry = obs.metrics_active()
        started = time.perf_counter() if registry is not None else 0.0
        with obs.span("obligation", property=prop.name, kind=kind,
                      part=where):
            try:
                payload, from_store = self._ni_part_inner(
                    prop, part, kind, where
                )
            except ProofSearchFailure:
                obs.event("obligation.finish", property=prop.name,
                          obligation=kind, part=where, verdict="failed",
                          store_hit=False)
                raise
        if registry is not None:
            registry.observe("obligation.seconds",
                             time.perf_counter() - started)
        obs.event("obligation.finish", property=prop.name,
                  obligation=kind, part=where, verdict="ok",
                  store_hit=from_store)
        return payload, from_store

    def _ni_part_inner(self, prop: NonInterference,
                       part: Optional[Tuple[str, str]], kind: str,
                       where: str) -> Tuple[object, bool]:
        """The uninstrumented body of :meth:`ni_part`."""
        key = self.obligation_key_for(prop, part)
        if self._store is not None:
            entry = self._store.get(key)
            if (entry is not None and entry.kind == kind
                    and entry.checked):
                return entry.payload, True
        if self._hot_results():
            hit = self.compiled_plan().cached_result(key)
            if hit is not None and hit[0] == kind:
                if self._store is not None:
                    # Hot entries come from successful searches, whose
                    # search *is* the check (see repro.prover.ni).
                    self._store.put(
                        StoreEntry(key, kind, hit[1], checked=True)
                    )
                return hit[1], False
        labeling = self.ni_labeling(prop)
        step = self.generic_step()
        with obs.span("search", property=prop.name, part=where):
            if part is None:
                payload: object = tuple(check_ni_base(step, labeling))
            else:
                payload = tuple(check_ni_exchange(
                    step, labeling, step.exchange(*part)
                ))
        if self._store is not None:
            # NI search *is* the check (see repro.prover.ni), so the
            # entry records checker approval in-band.
            self._store.put(StoreEntry(key, kind, payload, checked=True))
        if self._hot_results():
            self.compiled_plan().record_result(key, kind, payload)
        return payload, False

    # -- pipeline: check -------------------------------------------------------

    def check_trace_derivation(self,
                               proof: TracePropertyProof) -> List[str]:
        """Pipeline check stage for a trace derivation: replay it through
        the independent checker against the current abstraction."""
        return trace_proof_complaints(self.generic_step(), proof)

    def check_ni_derivation(self, proof: NIProof) -> List[str]:
        """Pipeline check stage for an NI record: re-derive the base
        condition and validate verdict coverage."""
        return ni_proof_complaints(self.generic_step(), proof)

    # -- per-property verification ----------------------------------------------

    def _prove_trace(self, prop: TraceProperty
                     ) -> Tuple[TracePropertyProof, bool, str]:
        """Plan, search (store first) and check one trace property (the
        property's single pipeline obligation, instrumented as such)."""
        obs.event("obligation.start", property=prop.name,
                  obligation="trace")
        registry = obs.metrics_active()
        started = time.perf_counter() if registry is not None else 0.0
        with obs.span("obligation", property=prop.name, kind="trace"):
            try:
                proof, checked, source = self._prove_trace_inner(prop)
            except (ProofSearchFailure, ProofCheckFailure):
                obs.event("obligation.finish", property=prop.name,
                          obligation="trace", verdict="failed",
                          store_hit=False)
                raise
        if registry is not None:
            registry.observe("obligation.seconds",
                             time.perf_counter() - started)
        obs.event("obligation.finish", property=prop.name,
                  obligation="trace", verdict="ok",
                  store_hit=(source == "store"))
        return proof, checked, source

    def _prove_trace_inner(self, prop: TraceProperty
                           ) -> Tuple[TracePropertyProof, bool, str]:
        """The uninstrumented body of :meth:`_prove_trace`."""
        with obs.span("plan", property=prop.name):
            (ob,) = self.plan(prop)
        if self._store is not None:
            entry = self._store.get(ob.key)
            if (entry is not None and entry.kind == "trace"
                    and isinstance(entry.payload, TracePropertyProof)
                    and entry.payload.property == prop):
                proof = entry.payload
                if self.options.check_proofs:
                    with obs.span("check", property=prop.name):
                        complaints = self.check_trace_derivation(proof)
                    if not complaints:
                        return proof, True, "store"
                    obs.incr("store.invalid")
                elif entry.checked:
                    # Checker approval recorded in-band at store time.
                    return proof, False, "store"
        if self._hot_results():
            hit = self.compiled_plan().cached_result(ob.key)
            if hit is not None and hit[0] == "trace" \
                    and isinstance(hit[1], TracePropertyProof) \
                    and hit[1].property == prop:
                proof = hit[1]
                checked = False
                if self.options.check_proofs:
                    with obs.span("check", property=prop.name):
                        check_trace_proof(self.generic_step(), proof)
                    checked = True
                if self._store is not None:
                    self._store.put(
                        StoreEntry(ob.key, "trace", proof, checked)
                    )
                    self._put_trace_fragments(prop, proof)
                return proof, checked, "searched"
        proof = self._search_trace(prop)
        checked = False
        if self.options.check_proofs:
            with obs.span("check", property=prop.name):
                check_trace_proof(self.generic_step(), proof)
            checked = True
        if self._store is not None:
            # The fragment-grained search already filed the per-fragment
            # entries; the whole derivation is filed under the
            # obligation key.
            self._store.put(StoreEntry(ob.key, "trace", proof, checked))
        if self._hot_results():
            self.compiled_plan().record_result(ob.key, "trace", proof)
        return proof, checked, "searched"

    # -- fragment-grained trace search -----------------------------------------

    def _fragment_key(self, prop: TraceProperty, part: Part) -> str:
        """The content address of one trace-proof *fragment* (the base
        case for ``part=None``, one exchange's inductive case
        otherwise); see :meth:`fragment_keys`."""
        return self.fragment_keys(prop)[part]

    def fragment_keys(self, prop: TraceProperty) -> Dict[Part, str]:
        """Every fragment's dependency-scoped content address for
        ``prop``: the base case under ``None`` plus one entry per
        exchange of the kernel (computed once per property).

        Scoped by the slice digests instead of the whole-program digest,
        so editing one handler only re-keys the fragments that
        syntactically depend on it.  Distinct from every
        whole-obligation key: the ``part`` tag carries a ``trace-frag``
        marker.  Purely syntactic (no symbolic step is built), so
        callers — the incremental invalidation map, the serve daemon —
        can enumerate what an edit invalidates without paying for
        verification.
        """
        render = self._property_render(prop)
        keys = self._fragment_keys.get(render)
        if keys is None:
            keys = self._fragment_keys[render] = trace_fragment_keys(
                self.slice_digests(), render, self.options,
            )
        return keys

    def _search_trace(self, prop: TraceProperty) -> TracePropertyProof:
        """The search stage for a trace property.

        Without a proof store this is one monolithic
        :func:`prove_trace_property` call.  With a store, the derivation
        is searched *fragment by fragment* (base case + one fragment per
        exchange), and each fragment is first looked up under its
        dependency-scoped key and revalidated through the independent
        checker before reuse — so an incremental edit to one handler
        re-proves only the fragments whose dependency slice changed (or
        whose revalidation fails, e.g. a stale secondary-induction
        invariant)."""
        if self._store is None:
            with obs.span("search", property=prop.name):
                return prove_trace_property(self._tactic_context(), prop)
        scheme = scheme_of(prop)
        step = self.generic_step()
        tc = self._tactic_context()
        with obs.span("search", property=prop.name):
            base = self._fragment_base(tc, prop, scheme, step)
            steps: List[StepProof] = []
            for ex in step.exchanges:
                steps.extend(
                    self._fragment_exchange(tc, prop, scheme, step, ex)
                )
        return TracePropertyProof(
            property=prop, scheme=scheme, base=base, steps=tuple(steps),
        )

    def _fragment_base(self, tc, prop: TraceProperty, scheme,
                       step: GenericStep) -> BaseProof:
        key = self._fragment_key(prop, None)
        entry = self._store.get(key)
        if (entry is not None and entry.kind == "trace-base"
                and isinstance(entry.payload, BaseProof)):
            if not trace_base_complaints(step, scheme, entry.payload):
                obs.incr("trace.fragment.hit")
                return entry.payload
            obs.incr("trace.fragment.invalid")
        obs.incr("trace.fragment.searched")
        base = prove_trace_base(tc, prop, scheme)
        self._store.put(StoreEntry(key, "trace-base", base, True))
        return base

    def _fragment_exchange(self, tc, prop: TraceProperty, scheme,
                           step: GenericStep, ex) -> List[StepProof]:
        key = self._fragment_key(prop, ex.key)
        entry = self._store.get(key)
        if (entry is not None and entry.kind == "trace-step"
                and isinstance(entry.payload, tuple)):
            complaints: List[str] = []
            recorded = record_step_proofs(entry.payload, complaints)
            if not complaints and not trace_exchange_complaints(
                step, scheme, ex, recorded
            ):
                obs.incr("trace.fragment.hit")
                return list(entry.payload)
            obs.incr("trace.fragment.invalid")
        obs.incr("trace.fragment.searched")
        part = prove_trace_exchange(tc, prop, scheme, ex)
        self._store.put(StoreEntry(key, "trace-step", tuple(part), True))
        return part

    def _put_trace_fragments(self, prop: TraceProperty,
                             proof: TracePropertyProof) -> None:
        """File a whole trace derivation's fragments under their
        dependency-scoped keys (used when the proof was obtained without
        the fragment search: hot-cache replays and incremental
        revalidation adoption)."""
        if self._store is None:
            return
        self._store.put(StoreEntry(
            self._fragment_key(prop, None), "trace-base",
            proof.base, True,
        ))
        by_exchange: Dict[Tuple[str, str], List[StepProof]] = {}
        for sp in proof.steps:
            by_exchange.setdefault(sp.exchange_key, []).append(sp)
        for ex_key, parts in by_exchange.items():
            self._store.put(StoreEntry(
                self._fragment_key(prop, ex_key), "trace-step",
                tuple(parts), True,
            ))

    def adopt_trace_proof(self, prop: TraceProperty,
                          proof: TracePropertyProof,
                          checked: bool) -> None:
        """Persist an externally validated derivation (the incremental
        harness's revalidation path) under the current obligation and
        fragment keys, so later runs serve it from the store."""
        if self._store is None:
            return
        (ob,) = self.plan(prop)
        self._store.put(StoreEntry(ob.key, "trace", proof, checked))
        self._put_trace_fragments(prop, proof)

    def _prove_ni(self, prop: NonInterference
                  ) -> Tuple[NIProof, bool, str]:
        """Plan, search (store first) and check one NI property.

        The check stage validates the *recorded* conditions (base
        re-derivation + verdict coverage) through the checker rather than
        re-running the whole NI search, halving the cost of the slowest
        property class.
        """
        with obs.span("plan", property=prop.name):
            obligations = self.plan(prop)
        all_from_store = True
        base_notes: Tuple[str, ...] = ()
        verdicts: List[PathVerdict] = []
        for ob in obligations:
            payload, from_store = self.ni_part(prop, ob.part)
            all_from_store = all_from_store and from_store
            if ob.part is None:
                base_notes = tuple(payload)
            else:
                verdicts.extend(payload)
        proof = NIProof(prop, base_notes, tuple(verdicts))
        checked = False
        if self.options.check_proofs:
            with obs.span("check", property=prop.name):
                check_ni_proof(self.generic_step(), proof)
            checked = True
        return proof, checked, "store" if all_from_store else "searched"

    def prove_property(self, prop: Property) -> PropertyResult:
        """Prove (and check) one property, timing the whole pipeline.

        Runs under the symbolic-cache scope selected by
        ``ProverOptions.term_cache``; caching never changes the verdict,
        the derivation, or its key (asserted by the differential tests).
        """
        with symcache.scope(self.options.term_cache), \
                symsolver.prefix_scope(self.options.compile_plans):
            with obs.span("property", property=prop.name):
                result = self._prove_property_inner(prop)
        registry = obs.metrics_active()
        if registry is not None:
            registry.observe("property.seconds", result.seconds)
        return result

    def _prove_property_inner(self, prop: Property) -> PropertyResult:
        start = time.perf_counter()
        try:
            if isinstance(prop, TraceProperty):
                proof, checked, source = self._prove_trace(prop)
            elif isinstance(prop, NonInterference):
                proof, checked, source = self._prove_ni(prop)
            else:
                raise ProofSearchFailure(f"unknown property form {prop!r}")
        except ProofSearchFailure as failure:
            return PropertyResult(
                property=prop,
                status="failed",
                seconds=time.perf_counter() - start,
                error=str(failure),
                counterexample=failure.counterexample,
            )
        except ProofCheckFailure as failure:
            return PropertyResult(
                property=prop,
                status="failed",
                seconds=time.perf_counter() - start,
                error=f"proof checker rejected the derivation: {failure}",
            )
        return PropertyResult(
            property=prop,
            status="proved",
            seconds=time.perf_counter() - start,
            proof=proof,
            checked=checked,
            source=source,
        )

    def _deadline_expired(self) -> bool:
        deadline = self.options.deadline
        return deadline is not None and time.monotonic() >= deadline

    def _deadline_result(self, prop: Property) -> PropertyResult:
        obs.incr("prover.deadline_skipped")
        obs.event("property.deadline", property=prop.name)
        return PropertyResult(
            property=prop,
            status="failed",
            seconds=0.0,
            error=DEADLINE_MESSAGE,
        )

    def verify_all(self) -> VerificationReport:
        """Verify every property of the program, in order.

        The deadline is checked between properties: once it has passed,
        every remaining property becomes a deadline failure verdict.
        """
        start = time.perf_counter()
        report = VerificationReport(self.spec.name)
        with obs.span("verify", program=self.spec.name):
            for prop in self.spec.properties:
                if self._deadline_expired():
                    report.results.append(self._deadline_result(prop))
                    continue
                report.results.append(self.prove_property(prop))
        report.wall_seconds = time.perf_counter() - start
        return report


def verify(spec: SpecifiedProgram,
           options: Optional[ProverOptions] = None) -> VerificationReport:
    """One-shot convenience: verify all properties of ``spec``."""
    return Verifier(spec, options).verify_all()


def prove(spec: SpecifiedProgram, property_name: str,
          options: Optional[ProverOptions] = None) -> PropertyResult:
    """One-shot convenience: verify a single named property."""
    verifier = Verifier(spec, options)
    return verifier.prove_property(spec.property_named(property_name))
