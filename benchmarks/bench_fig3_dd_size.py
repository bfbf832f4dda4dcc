"""Figure 3: decision-diagram compactness (experiment F3 in DESIGN.md).

The paper's Fig. 3 contrasts the compact DD of the GHZ system matrix
(Fig. 3a) with the linear-size identity DD (Fig. 3b).  These benchmarks
measure construction time and assert the size relations: the GHZ DD stays
polynomially small while the dense matrix grows as ``4^n``, and the
identity DD is exactly ``n`` nodes.
"""

import pytest

from repro.bench import algorithms
from repro.dd import ArrayDDPackage
from repro.dd.gates import circuit_dd

SIZES = [4, 8, 16, 32, 65]


@pytest.mark.parametrize("n", SIZES)
def test_identity_dd_linear(benchmark, n):
    def build():
        pkg = ArrayDDPackage()
        return pkg.matrix_dd_size(pkg.identity(n))

    size = benchmark(build)
    assert size == n  # Fig. 3b: linear in the number of qubits


@pytest.mark.parametrize("n", [3, 8, 16, 32])
def test_ghz_unitary_dd_compact(benchmark, n):
    def build():
        pkg = ArrayDDPackage()
        return pkg.matrix_dd_size(circuit_dd(pkg, algorithms.ghz_state(n)))

    size = benchmark(build)
    # Fig. 3a: the GHZ system matrix DD grows linearly, not as 4^n.
    assert size <= 3 * n


@pytest.mark.parametrize("n", [2, 4, 6])
def test_qft_unitary_dd(benchmark, n):
    """QFT matrices have structure too, but less sharing than GHZ."""

    def build():
        pkg = ArrayDDPackage()
        return pkg.matrix_dd_size(circuit_dd(pkg, algorithms.qft(n)))

    size = benchmark(build)
    assert size >= n  # sanity: at least one node per level
