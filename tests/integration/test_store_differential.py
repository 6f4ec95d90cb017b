"""Differential testing of the pipeline's proof-store configurations:
no store, a cold proof store, and a warm proof store must all produce
identical per-property verdicts and identical checked derivation keys on
every builtin kernel — and identical failures on a kernel with a false
property."""

import pytest

from repro.props import (
    TraceProperty, comp_pat, msg_pat, recv_pat, send_pat, specify,
)
from repro.prover import ProverOptions, Verifier
from repro.systems import BENCHMARKS


def signature(report):
    """What must be invariant across configurations: per-property name,
    status, checker approval, derivation key, and error text."""
    return [
        (r.property.name, r.status, r.checked, r.derivation_key(), r.error)
        for r in report.results
    ]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_configurations_agree(name, tmp_path):
    spec = BENCHMARKS[name].load()

    serial = Verifier(spec, ProverOptions()).verify_all()

    stored = ProverOptions(proof_store=str(tmp_path))
    cold = Verifier(spec, stored).verify_all()
    warm = Verifier(spec, stored).verify_all()

    expected = signature(serial)
    assert signature(cold) == expected
    assert signature(warm) == expected

    assert serial.all_proved
    assert all(r.source == "searched" for r in cold.results)
    assert all(r.source == "store" for r in warm.results)


def test_failures_agree_cold_vs_warm_store(ssh_info, tmp_path):
    """A kernel with a false property fails identically — same status,
    same diagnostic — in every configuration."""
    spec = specify(
        ssh_info,
        TraceProperty(
            "AuthBeforeTerm", "Enables",
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
        ),
        TraceProperty(
            "Backwards", "Enables",
            send_pat(comp_pat("Terminal"), msg_pat("ReqTerm", "?u")),
            recv_pat(comp_pat("Password"), msg_pat("Auth", "?u")),
        ),
    )
    serial = Verifier(spec).verify_all()
    stored = ProverOptions(proof_store=str(tmp_path))
    cold = Verifier(spec, stored).verify_all()
    warm = Verifier(spec, stored).verify_all()
    assert not serial.all_proved
    assert signature(cold) == signature(serial)
    assert signature(warm) == signature(serial)

