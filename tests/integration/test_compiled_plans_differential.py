"""Differential testing of compiled proof plans: executing a compiled
plan must be semantically invisible next to interpreting the symbolic
step from scratch.

For every builtin kernel, compile-on and ``--no-compile`` runs — on a
warm intern table and from a fresh one — must produce identical per-property verdicts,
checker approvals, derivation keys, and error text.  The derivation key
pins the whole derivation, and the obligation keys under it are
content-addressed, so this asserts bit-for-bit key stability across the
compiled and interpreted paths, not merely agreement on "proved".
"""

import pytest

from repro.prover import ProverOptions, Verifier
from repro.symbolic import compile as symcompile
from repro.symbolic import reset_interning
from repro.systems import BENCHMARKS


def signature(report):
    """What must be invariant across execution strategies."""
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


@pytest.fixture(autouse=True)
def _cold_plans():
    """Every run starts from a cold plan cache: cross-test hot results
    would let a compiled run skip work the interpreted run performs."""
    symcompile.clear_plans()
    yield
    symcompile.clear_plans()


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_compilation_is_semantically_invisible(name):
    spec = BENCHMARKS[name].load()

    interpreted = Verifier(
        spec, ProverOptions(compile_plans=False)
    ).verify_all()
    symcompile.clear_plans()
    compiled = Verifier(
        spec, ProverOptions(compile_plans=True)
    ).verify_all()

    assert signature(compiled) == signature(interpreted)
    assert compiled.all_proved


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_compiled_invisible_after_reset(name):
    """Each run starts from ``reset_interning()``, as a fresh process
    does: compiled and interpreted runs must still agree with a run on
    the warm table."""
    spec = BENCHMARKS[name].load()

    warm_interpreted = Verifier(
        spec, ProverOptions(compile_plans=False)
    ).verify_all()
    reset_interning()
    fresh_compiled = Verifier(
        spec, ProverOptions(compile_plans=True)
    ).verify_all()
    reset_interning()
    fresh_interpreted = Verifier(
        spec, ProverOptions(compile_plans=False)
    ).verify_all()

    expected = signature(warm_interpreted)
    assert signature(fresh_compiled) == expected
    assert signature(fresh_interpreted) == expected
