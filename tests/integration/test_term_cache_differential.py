"""Differential testing of the symbolic caching layer: memoized
simplification and solver query caching must be semantically invisible.

For every builtin kernel, caches-on and caches-off runs — on a warm
intern table and from a fresh one — must produce identical per-property verdicts, checker
approvals, derivation keys, and error text.  The derivation key pins the
*whole derivation*, so this asserts the caches never change which proof
is found, not merely whether one is.
"""

import pytest

from repro.prover import ProverOptions, Verifier
from repro.symbolic import reset_interning
from repro.systems import BENCHMARKS


def signature(report):
    """What must be invariant across cache configurations."""
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_caching_is_semantically_invisible(name):
    spec = BENCHMARKS[name].load()

    cached = Verifier(spec, ProverOptions(term_cache=True)).verify_all()
    uncached = Verifier(spec, ProverOptions(term_cache=False)).verify_all()

    expected = signature(uncached)
    assert signature(cached) == expected
    assert cached.all_proved


@pytest.mark.parametrize("name", ["ssh2", "browser3"])
def test_caching_invisible_after_reset(name):
    """Runs that start from ``reset_interning()``, as a fresh process
    does, must agree with a run on the warm table, caches on or off."""
    spec = BENCHMARKS[name].load()

    warm_uncached = Verifier(
        spec, ProverOptions(term_cache=False)
    ).verify_all()
    reset_interning()
    fresh_cached = Verifier(
        spec, ProverOptions(term_cache=True)
    ).verify_all()
    reset_interning()
    fresh_uncached = Verifier(
        spec, ProverOptions(term_cache=False)
    ).verify_all()

    expected = signature(warm_uncached)
    assert signature(fresh_cached) == expected
    assert signature(fresh_uncached) == expected
