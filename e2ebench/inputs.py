"""Seeded inputs and the expected-verdict oracle for the e2e benchmark.

Every input is kernel source text plus the set of property names that
must *fail* on it:

* the seven paper kernels prove all 41 of their properties;
* ``synthetic_kernel`` instances (taken from
  ``benchmarks/test_scalability.py``) are provable by construction;
* each single-handler mutant from ``repro.harness.mutation.mutants_of``
  fails exactly the properties pinned in ``expected_mutants.json``.

``python3 e2ebench/inputs.py --pin`` re-derives that file by verifying
every mutant and cross-checks it against the kill and survivor table in
``benchmarks/results/mutation.txt``.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FILE = Path(__file__).resolve().parent / "expected_mutants.json"
MUTATION_TABLE = ROOT / "benchmarks" / "results" / "mutation.txt"

#: group counts of the generated kernels in the cold-batch mix
SYNTHETIC_GROUPS = (4, 8, 12, 16, 20, 24, 28, 32)


@dataclass(frozen=True)
class Kernel:
    """One benchmark input: source text and its expected verdict."""

    label: str
    source: str
    properties: Tuple[str, ...]
    expected_failing: FrozenSet[str]
    #: dependency slices of the program (base + one per exchange), as
    #: ``repro.prover.incremental.fragment_digests`` counts them
    fragments: int

    def check(self, results: List[Tuple[str, bool]]) -> bool:
        """Whether ``(property, proved)`` pairs match the oracle: every
        property answered once, and exactly the expected ones failed."""
        names = [name for name, _ in results]
        failing = {name for name, proved in results if not proved}
        return (sorted(names) == sorted(self.properties)
                and failing == self.expected_failing)


def _kernel(label: str, spec, expected_failing=()) -> Kernel:
    from repro.frontend import pretty

    return Kernel(
        label=label,
        source=pretty(spec),
        properties=tuple(p.name for p in spec.properties),
        expected_failing=frozenset(expected_failing),
        fragments=1 + len(spec.program.exchange_keys()),
    )


def paper_kernels() -> Dict[str, Kernel]:
    """The seven paper kernels, in Figure 6 order."""
    from repro.systems import BENCHMARKS

    return {name: _kernel(name, module.load())
            for name, module in BENCHMARKS.items()}


def load_expected() -> Dict[str, List[str]]:
    """Mutant label -> its pinned failing-property names."""
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)["failing"]


def mutant_kernels() -> Dict[str, List[Kernel]]:
    """Paper kernel name -> its single-handler mutants, each with its
    pinned failing set.  A mutant missing from the pinned file is an
    error: the oracle must cover every input."""
    from repro.harness.mutation import mutants_of
    from repro.systems import BENCHMARKS

    expected = load_expected()
    out: Dict[str, List[Kernel]] = {}
    for name in BENCHMARKS:
        kernels = []
        for mutant in mutants_of(name):
            if mutant.label not in expected:
                raise KeyError("no pinned verdict for mutant "
                               f"{mutant.label!r} in {EXPECTED_FILE.name}")
            kernels.append(_kernel(mutant.label, mutant.spec,
                                   expected[mutant.label]))
        out[name] = kernels
    if sum(map(len, out.values())) != len(expected):
        raise ValueError(f"{EXPECTED_FILE.name} pins mutants that "
                         "mutants_of no longer generates")
    return out


@functools.lru_cache(maxsize=None)
def _scalability():
    """``benchmarks/test_scalability.py``, loaded by path (``benchmarks``
    is not an importable package)."""
    path = ROOT / "benchmarks" / "test_scalability.py"
    spec = importlib.util.spec_from_file_location("_e2e_scalability", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_kernel(groups: int):
    """``synthetic_kernel`` from the scalability benchmark."""
    return _scalability().synthetic_kernel(groups)


def cold_bases() -> List[Kernel]:
    """The kernels the cold-batch mix renames: every synthetic size in
    :data:`SYNTHETIC_GROUPS` plus the seven paper kernels."""
    synthetic = [_kernel(f"scale{g}", synthetic_kernel(g))
                 for g in SYNTHETIC_GROUPS]
    return synthetic + list(paper_kernels().values())


def renamed(source: str, suffix: str) -> str:
    """``source`` with its program renamed, so its program digest (and
    every content key derived from it) is new."""
    header, _, rest = source.partition("\n")
    if not header.startswith("program ") or not header.endswith(" {"):
        raise ValueError(f"unexpected program header {header!r}")
    name = header[len("program "):-len(" {")]
    return f"program {name}_{suffix} {{\n{rest}"


def shuffled_rounds(seed: int, kernels: int) -> Iterator[int]:
    """Kernel indices in seeded order, endlessly: shuffled rounds that
    each take every kernel once, so every run sees the same mix."""
    rng = random.Random(seed)
    while True:
        round_ = list(range(kernels))
        rng.shuffle(round_)
        yield from round_


class EditWalk:
    """One editor session's seeded walk over the kernels and their mutants.

    The session works on one kernel for an episode of ``episode`` steps,
    taking the kernels in shuffled rounds.  An episode opens with the
    kernel's original; from the original the next step is a mutant, from
    a mutant the original or another mutant, so consecutive submissions
    within an episode differ in one or two handler slices.

    Killed mutants (some property fails, so nothing is stored and every
    visit searches again) cost far more than survivors.  Each kernel's
    mutant visits therefore keep its killed share: after ``n`` visits,
    ``round(n * killed / mutants)`` of them were killed ones, each kind
    taken in shuffled rounds.  Every run so visits about the same mix.
    """

    def __init__(self, seed: int, originals: List[Kernel],
                 mutants: List[List[Kernel]], episode: int = 4) -> None:
        self.rng = random.Random(seed)
        self.originals = originals
        self.kernels = self._rounds(list(range(len(originals))))
        self.mutants = [self._stratified(kernels) for kernels in mutants]
        self.episode = episode
        self.steps = 0
        self.kernel = 0
        self.current: Kernel = originals[0]

    def _rounds(self, items: list) -> Iterator:
        order = shuffled_rounds(self.rng.randrange(2**32), len(items))
        return (items[i] for i in order)

    def _stratified(self, mutants: List[Kernel]) -> Iterator[Kernel]:
        killed = [m for m in mutants if m.expected_failing]
        survivors = [m for m in mutants if not m.expected_failing]
        kinds = (self._rounds(killed) if killed else iter(()),
                 self._rounds(survivors) if survivors else iter(()))
        taken = 0
        for n in itertools.count(1):
            if taken < round(n * len(killed) / len(mutants)):
                taken += 1
                yield next(kinds[0])
            else:
                yield next(kinds[1])

    def next(self) -> Kernel:
        """The source to submit next."""
        original = self.originals[self.kernel]
        if self.steps % self.episode == 0:
            self.kernel = next(self.kernels)
            self.current = self.originals[self.kernel]
        elif self.current is original or self.rng.random() < 0.5:
            self.current = next(self.mutants[self.kernel])
        else:
            self.current = original
        self.steps += 1
        return self.current


def _mutation_table() -> Tuple[int, int, List[str]]:
    """(mutants, killed, survivor labels) from the mutation results."""
    lines = MUTATION_TABLE.read_text(encoding="utf-8").splitlines()
    total = next(line for line in lines if line.startswith("TOTAL"))
    _, mutants, killed, _ = total.split()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("survivors"))
    survivors = [line.strip() for line in lines[start + 1:]
                 if line.startswith("  ")]
    return int(mutants), int(killed), survivors


def pin() -> int:
    """Verify every mutant, cross-check the result against the
    mutation table, and write :data:`EXPECTED_FILE`."""
    from repro.harness.mutation import mutants_of
    from repro.prover import Verifier
    from repro.systems import BENCHMARKS

    failing: Dict[str, List[str]] = {}
    for name in BENCHMARKS:
        for mutant in mutants_of(name):
            report = Verifier(mutant.spec).verify_all()
            failing[mutant.label] = sorted(
                r.property.name for r in report.results if not r.proved
            )
    mutants, killed, survivors = _mutation_table()
    ours_killed = sum(1 for names in failing.values() if names)
    ours_survivors = [label for label, names in failing.items()
                      if not names]
    problems = []
    if len(failing) != mutants:
        problems.append(f"{len(failing)} mutants, table has {mutants}")
    if ours_killed != killed:
        problems.append(f"{ours_killed} killed, table has {killed}")
    if sorted(ours_survivors) != sorted(survivors):
        problems.append("survivor labels differ from the table")
    if problems:
        print("cross-check failed: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    with open(EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump({"source": "repro.harness.mutation.mutants_of, verified "
                             "with default ProverOptions",
                   "mutants": mutants, "killed": killed,
                   "failing": failing}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {mutants} mutants ({killed} killed) to "
          f"{EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] != ["--pin"]:
        sys.exit("usage: python3 e2ebench/inputs.py --pin")
    sys.exit(pin())
