"""One render per submission: the program digest, slice digests and
every key of a :class:`Verifier` are composed from a single render of
each AST subtree, and equal the reference definitions byte for byte."""

import dataclasses

import pytest

from repro import obs
from repro.frontend import parse_program
from repro.props import TraceProperty
from repro.prover import Verifier
from repro.prover import proofstore
from repro.symbolic import compile as symcompile
from repro.systems import BENCHMARKS, browser3


@pytest.fixture(autouse=True)
def _cold_plans():
    symcompile.clear_plans()
    yield
    symcompile.clear_plans()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_composed_digests_equal_the_reference_renders(name):
    program = BENCHMARKS[name].load().program
    render = proofstore.render_program(program)
    assert render.digest() == proofstore.digest(program)
    expected = {None: proofstore.dependency_digest(program, None)}
    for part in program.exchange_keys():
        expected[part] = proofstore.dependency_digest(program, part)
    digests = proofstore.fragment_digests(render)
    assert digests == expected
    assert list(digests) == list(expected)


def test_first_matching_handler_scopes_its_slice():
    """``handler_for`` dispatches to the first of two handlers for one
    exchange; the slice digest must follow it, and the program digest
    must still cover both."""
    program = BENCHMARKS["car"].load().program
    first, second = program.handlers[:2]
    shadowed = dataclasses.replace(second, ctype=first.ctype,
                                   msg=first.msg)
    doubled = dataclasses.replace(
        program, handlers=program.handlers + (shadowed,),
    )
    render = proofstore.render_program(doubled)
    assert render.digest() == proofstore.digest(doubled)
    assert proofstore.fragment_digests(render) == \
        proofstore.fragment_digests(proofstore.render_program(program))


def test_fragment_keys_equal_the_unmemoized_keys():
    spec = BENCHMARKS["browser3"].load()
    verifier = Verifier(spec)
    for prop in spec.trace_properties():
        keys = verifier.fragment_keys(prop)
        assert list(keys) == [None, *spec.program.exchange_keys()]
        for part, key in keys.items():
            tag = ("trace-frag",) if part is None \
                else ("trace-frag",) + part
            assert key == proofstore.obligation_key(
                proofstore.dependency_digest(spec.program, part),
                prop, verifier.options, tag,
            )


def test_each_subtree_and_property_renders_once(monkeypatch):
    spec = parse_program(browser3.SOURCE)
    program = spec.program
    rendered, depth = [], [0]
    real = proofstore.fingerprint

    def counting(value):
        # Set members render through nested ``fingerprint`` calls; count
        # only the outermost render.
        if not depth[0]:
            rendered.append(value)
        depth[0] += 1
        try:
            return real(value)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(proofstore, "fingerprint", counting)
    monkeypatch.setattr("repro.prover.engine.fingerprint", counting)
    verifier = Verifier(spec)
    verifier.program_digest()
    verifier.slice_digests()
    for prop in spec.properties:
        verifier.plan(prop)
        if isinstance(prop, TraceProperty):
            verifier.fragment_keys(prop)
            verifier.fragment_keys(prop)
    assert verifier.slice_digests() is verifier.slice_digests()
    subtrees = 3 + len(program.handlers)
    assert len(rendered) == subtrees + len(spec.properties)


def test_plan_key_memo_is_bounded_across_reparsed_submissions():
    """A daemon re-parses every submission, so each one brings new
    property objects; the plan's key memo must stay bounded."""
    for _ in range(200):
        spec = parse_program(browser3.SOURCE)
        verifier = Verifier(spec)
        for prop in spec.properties:
            verifier.plan(prop)
    plan = symcompile.plan_for(verifier.program_digest())
    assert 0 < len(plan._keys) <= symcompile._KEY_LIMIT


def test_plan_key_memo_still_hits_across_verifiers():
    spec = BENCHMARKS["browser3"].load()
    for prop in spec.properties:
        Verifier(spec).plan(prop)
    sink = obs.Telemetry()
    with obs.use(sink):
        verifier = Verifier(spec)
        for prop in spec.properties:
            verifier.plan(prop)
    assert sink.counters.get("compile.key.miss", 0) == 0
    assert sink.counters["compile.key.hit"] > 0
