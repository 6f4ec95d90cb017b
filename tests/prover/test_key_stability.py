"""Content addresses are stable across commits, not only across code paths.

The differential suites compare code paths within one build (store on
and off, compiled and interpreted), so a change to how keys are derived
that moves every path the same way passes them all — and silently
orphans every proof store on disk.  This test pins the SHA-256 of the
sorted table of every plan (obligation), fragment and derivation key of
the seven paper kernels under the default options.  The value does not
depend on ``PYTHONHASHSEED``: set and dict-key renders are sorted.

If this fails, the key format changed: restore it, or bump
``proofstore.FORMAT_VERSION`` and update the golden value with it.
"""

from __future__ import annotations

import hashlib

from repro.props.spec import TraceProperty
from repro.prover import Verifier
from repro.systems import BENCHMARKS

#: SHA-256 of the key table below, for ``FORMAT_VERSION`` 1.
GOLDEN = "0517d2711ba0644affe784ec3a0cd21e4463d2c76298479c720691d2018930ae"


def key_table():
    """One line per key: kernel, kind, property, part, key."""
    rows = []
    for kernel, module in BENCHMARKS.items():
        verifier = Verifier(module.load())
        for prop in verifier.spec.properties:
            for ob in verifier.plan(prop):
                rows.append(f"{kernel}\tplan\t{prop.name}\t{ob.part!r}"
                            f"\t{ob.key}")
            if isinstance(prop, TraceProperty):
                for part, key in verifier.fragment_keys(prop).items():
                    rows.append(f"{kernel}\tfragment\t{prop.name}"
                                f"\t{part!r}\t{key}")
        for result in verifier.verify_all().results:
            assert result.proved, (kernel, result.property.name)
            rows.append(f"{kernel}\tderivation\t{result.property.name}"
                        f"\tNone\t{result.derivation_key()}")
    return sorted(rows)


def test_key_table_matches_the_golden_digest():
    rows = key_table()
    table = "\n".join(rows).encode("utf-8")
    assert hashlib.sha256(table).hexdigest() == GOLDEN, len(rows)
