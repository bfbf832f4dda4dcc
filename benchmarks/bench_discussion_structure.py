"""Section 6.2 discussion, part 1 (experiment D1 in DESIGN.md).

"Decision diagrams show significant benefits for circuits containing large
reversible parts [...].  The sensibility of decision diagrams to numerical
imprecision makes them hard to use on quantum algorithms that cannot be
exactly represented using floating points" — while "ZX-diagrams are not as
sensitive to the structure of the underlying system matrix".

These benchmarks measure the two engines on the two circuit classes and
assert the structural claims: reversible MCT circuits keep DDs small;
perturbed rotation angles degrade DD node sharing but never increase the
ZX spider count.
"""

import random

import pytest

from repro.bench import algorithms, reversible
from repro.circuit import QuantumCircuit
from repro.compile.decompose import decompose_to_basis
from repro.dd import ArrayDDPackage
from repro.dd.gates import circuit_dd
from repro.zx import circuit_to_zx, full_reduce


def _perturb(circuit: QuantumCircuit, magnitude: float, seed: int = 0):
    rng = random.Random(seed)
    noisy = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_noisy")
    for op in circuit:
        params = tuple(
            p + rng.uniform(-magnitude, magnitude) for p in op.params
        )
        noisy.add(op.name, op.targets, op.controls, params)
    return noisy


@pytest.mark.parametrize(
    "make",
    [
        lambda: reversible.plus_constant_adder_circuit(8, 63),
        lambda: reversible.synthesize(reversible.hidden_weighted_bit(5)),
    ],
    ids=["adder_8", "hwb_5"],
)
def test_dd_on_reversible_structure(benchmark, make):
    """Reversible circuits: the DD of the full function stays compact."""
    circuit = make()

    def build():
        pkg = ArrayDDPackage()
        return pkg.matrix_dd_size(circuit_dd(pkg, circuit))

    size = benchmark.pedantic(build, rounds=1)
    # A reversible function's DD is at worst O(2^n) nodes (hwb famously
    # approaches it), far below the 4^n entries of the dense matrix.
    assert size < 2 ** (circuit.num_qubits + 1)


@pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-6], ids=lambda x: f"noise{x:g}")
def test_dd_under_angle_noise(benchmark, noise):
    """Perturbed rotation angles break node sharing (DD grows)."""
    base = decompose_to_basis(algorithms.qft(6))
    noisy = _perturb(base, noise)

    def build():
        pkg = ArrayDDPackage()
        return pkg.matrix_dd_size(circuit_dd(pkg, noisy))

    benchmark.pedantic(build, rounds=1)


def test_noise_grows_dd_but_not_zx():
    """The discussion's core contrast, asserted head-to-head."""
    base = decompose_to_basis(algorithms.qft(6))
    clean_pkg, noisy_pkg = ArrayDDPackage(), ArrayDDPackage()
    clean_size = clean_pkg.matrix_dd_size(circuit_dd(clean_pkg, base))
    noisy = _perturb(base, 1e-6)
    noisy_size = noisy_pkg.matrix_dd_size(circuit_dd(noisy_pkg, noisy))
    assert noisy_size >= clean_size  # sharing degrades (or stays equal)

    clean_diagram = circuit_to_zx(base)
    noisy_diagram = circuit_to_zx(noisy)
    assert noisy_diagram.num_spiders == clean_diagram.num_spiders
    before = noisy_diagram.num_spiders
    full_reduce(noisy_diagram)
    assert noisy_diagram.num_spiders <= before  # never increases


@pytest.mark.parametrize("noise", [0.0, 1e-6], ids=lambda x: f"noise{x:g}")
def test_zx_under_angle_noise(benchmark, noise):
    """ZX reduction cost is insensitive to angle noise."""
    base = decompose_to_basis(algorithms.qft(6))
    noisy = _perturb(base, noise)

    def reduce():
        diagram = circuit_to_zx(noisy)
        full_reduce(diagram)
        return diagram.num_spiders

    benchmark.pedantic(reduce, rounds=1)
