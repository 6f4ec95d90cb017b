"""Tests for the verification engine: options, deadlines, reports."""

import time

import pytest

from repro import obs

from repro.props import (
    NonInterference, TraceProperty, comp_pat, msg_pat, recv_pat, send_pat,
    specify,
)
from repro.prover import (
    DEADLINE_MESSAGE, ProverOptions, Verifier, prove, verify,
)
from repro.systems import BENCHMARKS


def props():
    return [
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
    ]


class TestReports:
    def test_mixed_report(self, ssh_info):
        report = verify(specify(ssh_info, *props()))
        assert not report.all_proved
        assert report.result_named("AuthBeforeTerm").proved
        assert not report.result_named("Backwards").proved
        assert report.total_seconds > 0
        assert "FAILURES" in str(report)

    def test_result_named_missing(self, ssh_info):
        report = verify(specify(ssh_info, props()[0]))
        with pytest.raises(KeyError):
            report.result_named("nope")

    def test_prove_single(self, ssh_info):
        result = prove(specify(ssh_info, *props()), "AuthBeforeTerm")
        assert result.proved

    def test_result_rendering(self, ssh_info):
        report = verify(specify(ssh_info, *props()))
        rendered = [str(r) for r in report.results]
        assert any(r.startswith("✓") for r in rendered)
        assert any(r.startswith("✗") for r in rendered)


class TestOptionConfigurations:
    @pytest.mark.parametrize("options", [
        ProverOptions(),
        ProverOptions(syntactic_skip=False),
        ProverOptions(memoize_step=False),
        ProverOptions(compile_plans=False),
        ProverOptions(syntactic_skip=False, memoize_step=False),
    ])
    def test_verdicts_invariant_under_options(self, ssh_info, options):
        """Optimizations must never change what is provable."""
        report = verify(specify(ssh_info, *props()), options)
        assert report.result_named("AuthBeforeTerm").proved
        assert not report.result_named("Backwards").proved

    def test_step_memoization(self, ssh_info):
        verifier = Verifier(specify(ssh_info, *props()))
        assert verifier.generic_step() is verifier.generic_step()

    def test_step_recomputed_without_memo(self, ssh_info):
        verifier = Verifier(specify(ssh_info, *props()),
                            ProverOptions(memoize_step=False))
        assert verifier.generic_step() is not verifier.generic_step()


class TestDeadlines:
    """The deadline is checked between properties, in the calling
    thread."""

    def test_serial_deadline_skips_remaining_properties(self):
        spec = BENCHMARKS["car"].load()
        report = Verifier(
            spec, ProverOptions(deadline=time.monotonic() - 1.0),
        ).verify_all()
        assert len(report.results) == len(spec.properties)
        assert all(not result.proved for result in report.results)
        assert all(DEADLINE_MESSAGE in result.error
                   for result in report.results)

    def test_generous_deadline_changes_nothing(self):
        spec = BENCHMARKS["car"].load()
        with obs.use(obs.Telemetry()) as telemetry:
            report = Verifier(
                spec, ProverOptions(deadline=time.monotonic() + 600.0),
            ).verify_all()
        assert all(result.proved for result in report.results)
        assert "prover.deadline_skipped" not in telemetry.counters


class TestNIIntegration:
    def test_ni_through_engine(self, ssh_info):
        ni = NonInterference(
            "PasswordIsolated", high_patterns=(comp_pat("Password"),),
            high_vars=frozenset({"authorized"}),
        )
        report = verify(specify(ssh_info, ni))
        # The SSH kernel sends ReqAuth (containing low Connection data) to
        # the high Password component from a low handler: NIlo fails —
        # and that is the *correct* verdict for this labeling.
        assert not report.all_proved
        assert "NIlo" in report.results[0].error
