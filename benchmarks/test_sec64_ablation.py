"""Section 6.4 regeneration benchmark: the optimization ablation.

Each configuration is its own pytest benchmark (full / no-skip / no-memo /
none over the whole 41-property figure), and the
combined table with speedups is written to
``benchmarks/results/sec64_ablation.txt``.
"""

import pytest

from repro.harness import ablation
from repro.prover import Verifier
from repro.systems import BENCHMARKS


def verify_everything(options):
    for module in BENCHMARKS.values():
        report = Verifier(module.load(), options).verify_all()
        assert report.all_proved


@pytest.mark.parametrize("config", sorted(ablation.CONFIGURATIONS))
def test_prover_configuration(benchmark, config):
    options = ablation.CONFIGURATIONS[config]
    benchmark.pedantic(verify_everything, args=(options,), rounds=3,
                       iterations=1)


def test_ablation_table(benchmark, record_table):
    rows = benchmark.pedantic(ablation.run_ablation, kwargs={"repeats": 2},
                              rounds=1, iterations=1)
    assert len(rows) == 7
    # The combined optimizations must beat the unoptimized prover overall
    # (per-benchmark noise tolerated at sub-millisecond scales).
    total_full = sum(r.seconds["full"] for r in rows)
    total_none = sum(r.seconds["none"] for r in rows)
    assert total_none > total_full
    record_table("sec64_ablation", ablation.render_ablation(rows))


def test_runtime_pipeline_table(benchmark, record_table):
    rows = benchmark.pedantic(
        ablation.run_runtime_ablation,
        kwargs={"repeats": 2}, rounds=1, iterations=1,
    )
    assert len(rows) == 7
    # Verdicts and checked derivation keys must be bitwise-identical
    # across cold and warm-store runs on every benchmark.
    assert all(r.invariant for r in rows)
    # A warm proof store must beat the cold serial run overall.
    total_cold = sum(r.serial_cold for r in rows)
    total_warm = sum(r.warm_store for r in rows)
    assert total_warm < total_cold
    record_table("runtime_pipeline",
                 ablation.render_runtime_ablation(rows))
