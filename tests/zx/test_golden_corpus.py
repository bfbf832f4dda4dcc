"""Replay of the ZX parity corpus (``golden_zx_corpus.json``).

The corpus was recorded while two ZX schedulers still coexisted: the
dirty-vertex worklist of :mod:`repro.zx.simplify` and a rescan-to-fixpoint
loop per rule.  Both gave the same verdict on every row before it was
written; each row stores the worklist's final ``spiders_remaining``,
edge count and ``zx_rewrites``, with the rescan scheduler's counts kept
beside them under ``legacy`` for reference (they differ on a few
undecided rows, where the rewrite order decides which local minimum
the reduction stops in).  Replaying the rows pins the kept scheduler:

* ``cases`` — every fuzz family x seed x variant (equivalent, one gate
  missing, one CNOT flipped) under ``strategy="zx"``;
* ``table1_compiled`` — the 18 cells of the Table-1 compiled block.
"""

import json
import math
import random
from pathlib import Path

import pytest

import repro.ec.zx_checker as zx_checker
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.bench.suite import compiled_benchmarks
from repro.circuit.symbolic import (
    circuit_parameters,
    instantiate_circuit,
    is_symbolic_circuit,
)
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.fuzz.generator import FAMILIES, random_family_circuit

_CORPUS = json.loads(
    (Path(__file__).parent / "golden_zx_corpus.json").read_text()
)


def _family_circuit(family, seed, num_qubits=4, num_gates=24):
    rng = random.Random(seed)
    circuit = random_family_circuit(
        family, rng, num_qubits=num_qubits, num_gates=num_gates
    )
    if is_symbolic_circuit(circuit):
        # The zx strategy refuses free parameters, so the parameterized
        # family is swept at a seeded concrete valuation.
        valuation = {
            name: rng.uniform(-math.pi, math.pi)
            for name in circuit_parameters(circuit)
        }
        circuit = instantiate_circuit(circuit, valuation)
    return circuit


def _variant(circuit, kind, seed):
    if kind == "equivalent":
        return circuit.copy()
    if kind == "gate_missing":
        return remove_random_gate(circuit, seed=seed)
    if kind == "flipped_cnot":
        return flip_random_cnot(circuit, seed=seed)
    raise ValueError(kind)


def _check(monkeypatch, circuit1, circuit2):
    """Run the zx strategy; return the result and its final diagram."""
    reduced = []
    reduce = zx_checker.full_reduce

    def spy(diagram, *args, **kwargs):
        reduced.append(diagram)
        return reduce(diagram, *args, **kwargs)

    monkeypatch.setattr(zx_checker, "full_reduce", spy)
    config = Configuration(strategy="zx", seed=0, static_analysis=False)
    result = EquivalenceCheckingManager(circuit1, circuit2, config).run()
    assert result.failure is None, result.failure
    return result, reduced[-1]


def _assert_row(result, diagram, row):
    statistics = result.statistics
    assert result.equivalence.value == row["verdict"]
    assert statistics["spiders_remaining"] == row["spiders_remaining"]
    assert diagram.num_spiders == row["spiders_remaining"]
    assert diagram.num_edges == row["edges"]
    assert statistics["zx_rewrites"] == row["zx_rewrites"]


def test_corpus_covers_every_family():
    assert {case["family"] for case in _CORPUS["cases"]} == set(FAMILIES)
    assert len(_CORPUS["cases"]) == len(FAMILIES) * 3 * 3
    assert len(_CORPUS["table1_compiled"]) == 6 * 3


@pytest.mark.parametrize(
    "case",
    _CORPUS["cases"],
    ids=lambda c: f"{c['family']}-{c['seed']}-{c['variant']}",
)
def test_family_case(monkeypatch, case):
    # The trailing CNOT guarantees flip_random_cnot has a target.
    circuit = _family_circuit(case["family"], case["seed"]).cx(0, 1)
    other = _variant(circuit, case["variant"], case["seed"])
    result, diagram = _check(monkeypatch, circuit, other)
    _assert_row(result, diagram, case)


@pytest.fixture(scope="module")
def compiled_block():
    return {
        instance.name: instance
        for instance in compiled_benchmarks("small", seed=0)
    }


@pytest.mark.parametrize(
    "cell",
    _CORPUS["table1_compiled"],
    ids=lambda c: f"{c['instance']}-{c['variant']}",
)
def test_table1_compiled_cell(monkeypatch, compiled_block, cell):
    instance = compiled_block[cell["instance"]]
    result, diagram = _check(
        monkeypatch, instance.original, instance.variants[cell["variant"]]
    )
    _assert_row(result, diagram, cell)
