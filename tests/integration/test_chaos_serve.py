"""The service-level chaos harness, end to end.

The CI ``chaos-serve-smoke`` job runs a sweep through the CLI twice and
compares the reports; here the suite runs every scenario in-process and
pins the harness contracts —
every scenario holds, reports are bit-for-bit deterministic for a fixed
seed, unknown scenarios are usage errors, and the CLI round-trips.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.harness.chaos_serve import (
    SCENARIO_NAMES,
    render_chaos_serve,
    run_chaos_serve,
)

#: Every scenario, in registry order: all fast enough for tier 1.
FAST = ["disk-full-store", "client-disconnect", "malformed-frame",
        "connection-flood"]

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


class TestSweep:
    def test_fast_scenarios_all_hold(self):
        report = run_chaos_serve(FAST, seed=0)
        assert report.ok, render_chaos_serve(report)
        assert [s.name for s in report.scenarios] == FAST
        for scenario in report.scenarios:
            assert scenario.checks["daemon_answers_ping"] is True
            assert scenario.checks["sessions_drained"] is True
            assert scenario.checks["admission_drained"] is True

    def test_reports_are_bit_for_bit_deterministic(self):
        first = run_chaos_serve(FAST, seed=42).to_dict()
        second = run_chaos_serve(FAST, seed=42).to_dict()
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)

    def test_scenario_seeds_differ_per_scenario_and_master_seed(self):
        report = run_chaos_serve(["malformed-frame"], seed=0)
        other = run_chaos_serve(["malformed-frame"], seed=1)
        assert report.scenarios[0].seed != other.scenarios[0].seed

    def test_unknown_scenario_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_chaos_serve(["no-such-scenario"], seed=0)

    def test_registry_is_complete(self):
        assert list(SCENARIO_NAMES) == FAST


class TestChaosServeCli:
    def test_cli_runs_a_scenario_and_writes_the_report(self, tmp_path):
        report_out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos-serve",
             "--scenarios", "malformed-frame", "--seed", "5",
             "--report-out", str(report_out), "--json"],
            env=cli_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload == json.loads(report_out.read_text())

    def test_cli_rejects_unknown_scenarios_with_usage_exit(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos-serve",
             "--scenarios", "nope"],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "unknown scenario" in proc.stderr

    def test_cli_lists_every_scenario(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos-serve", "--list"],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.split() == list(SCENARIO_NAMES)
