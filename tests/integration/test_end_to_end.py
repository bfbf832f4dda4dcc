"""Cross-module integration tests: the full case-study pipeline.

These tests tie everything together the way the paper's evaluation does:
generate benchmark circuits, compile/optimize them, inject errors, and
check equivalence with every strategy — asserting the *verdicts* (the
paper's correctness claim: "Both methods managed to prove the correct
result for all considered circuits where a result is obtained").
"""

import pytest

from repro.bench import algorithms as alg
from repro.bench import reversible as rev
from repro.bench.errors import flip_random_cnot, remove_random_gate
from repro.circuit import circuit_from_qasm, circuit_to_qasm
from repro.compile import (
    compile_circuit,
    grid_architecture,
    line_architecture,
    manhattan_architecture,
)
from repro.compile.decompose import decompose_to_basis
from repro.compile.optimize import optimize_circuit
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence

POSITIVE = (
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
    Equivalence.PROBABLY_EQUIVALENT,
)
NEGATIVE_OR_UNKNOWN = (
    Equivalence.NOT_EQUIVALENT,
    Equivalence.NO_INFORMATION,
)


def check(circuit1, circuit2, strategy, seed=0):
    return EquivalenceCheckingManager(
        circuit1,
        circuit2,
        Configuration(strategy=strategy, seed=seed, timeout=120),
    ).run()


BENCHMARKS = [
    ("ghz", lambda: alg.ghz_state(5)),
    ("graph_state", lambda: alg.graph_state(5, seed=1)),
    ("qft", lambda: alg.qft(4)),
    ("qpe", lambda: alg.qpe_exact(3)),
    ("grover", lambda: alg.grover(3)),
    ("walk", lambda: alg.quantum_random_walk(2, steps=2)),
    ("bv", lambda: alg.bernstein_vazirani(5, 3)),
    ("adder", lambda: alg.cuccaro_adder(2)),
    ("urf", lambda: rev.synthesize(rev.random_reversible_function(4, seed=2))),
]


class TestCompiledUseCase:
    @pytest.mark.parametrize("name,generator", BENCHMARKS, ids=lambda b: str(b))
    @pytest.mark.parametrize("strategy", ["combined", "zx"])
    def test_equivalent_verdicts(self, name, generator, strategy):
        if callable(generator):
            original = generator()
            device = line_architecture(original.num_qubits + 2)
            compiled = compile_circuit(original, device)
            result = check(original, compiled, strategy)
            assert result.equivalence in POSITIVE, (name, result.equivalence)

    @pytest.mark.parametrize(
        "error", [remove_random_gate, flip_random_cnot], ids=lambda f: f.__name__
    )
    def test_error_injected_verdicts(self, error):
        original = alg.grover(3)
        compiled = compile_circuit(original, line_architecture(5))
        broken = error(compiled, seed=3)
        dd = check(original, broken, "combined")
        assert dd.equivalence in (
            Equivalence.NOT_EQUIVALENT,
            # an unlucky removal can keep the circuit equivalent; the DD
            # checker then *proves* that instead
            Equivalence.EQUIVALENT,
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        )
        zx = check(original, broken, "zx")
        if dd.equivalence is Equivalence.NOT_EQUIVALENT:
            assert zx.equivalence in NEGATIVE_OR_UNKNOWN


class TestOptimizedUseCase:
    @pytest.mark.parametrize(
        "name,generator", BENCHMARKS[:6], ids=lambda b: str(b)
    )
    def test_original_vs_optimized(self, name, generator):
        if callable(generator):
            original = generator()
            lowered = decompose_to_basis(original)
            optimized = optimize_circuit(lowered, level=2)
            for strategy in ("combined", "zx"):
                result = check(original, optimized, strategy)
                assert result.equivalence in POSITIVE, (
                    name,
                    strategy,
                    result.equivalence,
                )


class TestQasmInterchange:
    """The paper's workflow: benchmarks travel as QASM files."""

    def test_roundtrip_through_qasm_then_verify(self):
        original = alg.grover(3)
        compiled = compile_circuit(original, grid_architecture(2, 3))
        # serialize both, reparse, re-attach metadata
        original2 = circuit_from_qasm(circuit_to_qasm(original))
        compiled2 = circuit_from_qasm(circuit_to_qasm(compiled))
        compiled2.initial_layout = dict(compiled.initial_layout)
        compiled2.output_permutation = dict(compiled.output_permutation)
        result = check(original2, compiled2, "combined")
        assert result.equivalence in POSITIVE


class TestManhattanScale:
    """65-qubit checks exercise the wide-register code paths."""

    def test_ghz_on_manhattan(self):
        original = alg.ghz_state(16)
        compiled = compile_circuit(original, manhattan_architecture())
        assert compiled.num_qubits == 65
        result = check(original, compiled, "alternating")
        assert result.equivalence in POSITIVE
        zx = check(original, compiled, "zx")
        assert zx.equivalence in POSITIVE

    def test_identity_dd_is_tiny_at_65_qubits(self):
        from repro.dd import ArrayDDPackage

        pkg = ArrayDDPackage()
        assert pkg.matrix_dd_size(pkg.identity(65)) == 65
