"""Tier-1 smoke benchmarks for the DD fast-path kernels and ZX engines.

Marked ``bench_smoke`` so they can be selected alone::

    PYTHONPATH=src python -m pytest -m bench_smoke -q

They are deliberately tiny (well under 5 seconds).  Here we only guard
the invariants the benchmarks rely on: the DD checkers reproduce golden
verdicts, sizes and stimulus digests on small pairs, the ZX simplifier
reproduces golden final diagrams and rewrite counts, and everything
stays fast enough for tier-1.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.algorithms import ghz_state
from repro.compile import compile_circuit, line_architecture
from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence

POSITIVE = (
    Equivalence.EQUIVALENT,
    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)


@pytest.mark.bench_smoke
def test_dd_kernel_smoke():
    """Compiled GHZ-8 on a 10-wire line: verdict and peak DD size as the
    kernel and full-height multiply paths both reported them."""
    original = ghz_state(8)
    compiled = compile_circuit(original, line_architecture(10))

    config = Configuration(strategy="alternating", seed=0)
    start = time.perf_counter()
    result = EquivalenceCheckingManager(original, compiled, config).run()
    elapsed = time.perf_counter() - start

    assert result.equivalence is Equivalence.EQUIVALENT
    assert result.statistics["max_dd_size"] == 8
    # Generous bound: this pair takes ~0.1 s; 5 s means something broke.
    assert elapsed < 5.0


@pytest.mark.bench_smoke
def test_dd_kernel_smoke_detects_error():
    """The fast path must still catch an injected error."""
    from repro.bench.errors import remove_random_gate

    original = ghz_state(8)
    compiled = compile_circuit(original, line_architecture(10))
    broken = remove_random_gate(compiled, seed=0)

    config = Configuration(strategy="alternating", seed=0)
    result = EquivalenceCheckingManager(original, broken, config).run()
    assert result.equivalence is Equivalence.NOT_EQUIVALENT


@pytest.mark.bench_smoke
def test_batched_simulation_smoke():
    """Batched simulation on a compiled GHZ pair consumes the stimulus
    sequence a per-stimulus loop consumed (same sha256 digest), applies
    each gate once per batch, and is not slower than checking the same
    number of stimuli one at a time."""
    from repro.compile import manhattan_architecture

    original = ghz_state(16)
    compiled = compile_circuit(original, manhattan_architecture())

    def best_of_two(configs):
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            for config in configs:
                result = EquivalenceCheckingManager(
                    original, compiled, config
                ).run()
                assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
            best = min(best, time.perf_counter() - start)
        return best, result

    one_at_a_time, _ = best_of_two([
        Configuration(strategy="simulation", seed=seed, num_simulations=1)
        for seed in range(8)
    ])
    batched, result = best_of_two(
        [Configuration(strategy="simulation", seed=0, num_simulations=8)]
    )

    assert result.statistics["stimuli_digest"] == (
        "e8c59589778d69e2fcdbd890af2b231d4bdf4d6647461bb68cbfda8b84ef8370"
    )
    counters = result.statistics["perf"]["counters"]
    assert counters.get("dd.batch_width") == 8
    # One application per gate of either circuit, for all 8 columns.
    assert counters.get("dd.batched_gate_applications") == 32
    # Equality with a small scheduling allowance still catches a
    # batching regression.
    assert batched <= one_at_a_time * 1.1 + 0.05


@pytest.mark.bench_smoke
def test_idle_wire_elision_counters():
    """Compiled GHZ-16 on the 65-qubit Manhattan device touches 16 wires
    after logical form; the simulation must run on those 16 only.  The
    node count is deterministic (seeded stimuli), so a bound on it guards
    the elision without timing noise: 10669 vector nodes at full width,
    1653 on the compact register."""
    from repro.compile import manhattan_architecture

    original = ghz_state(16)
    compiled = compile_circuit(original, manhattan_architecture())
    config = Configuration(strategy="simulation", seed=0, num_simulations=8)
    result = EquivalenceCheckingManager(original, compiled, config).run()

    assert result.equivalence is Equivalence.PROBABLY_EQUIVALENT
    statistics = result.statistics
    assert statistics["active_qubits"] == 16
    assert statistics["elided_wires"] == 65 - 16
    assert statistics["stimuli_digest"] == (
        "e8c59589778d69e2fcdbd890af2b231d4bdf4d6647461bb68cbfda8b84ef8370"
    )
    assert statistics["perf"]["vector_nodes_created"] < 3000


@pytest.mark.bench_smoke
def test_zx_simplify_smoke():
    """The ZX strategy reduces qft_5's miter to bare wires and stays fast."""
    from repro.bench.algorithms import qft

    original = qft(5)
    config = Configuration(strategy="zx", seed=0)
    start = time.perf_counter()
    result = EquivalenceCheckingManager(original, original, config).run()
    elapsed = time.perf_counter() - start

    assert result.equivalence in POSITIVE
    assert result.statistics["spiders_remaining"] == 0
    counters = result.statistics["perf"]["counters"]
    assert counters.get("zx.rounds", 0) >= 1
    # Generous bound: this pair takes ~0.05 s; 5 s means something broke.
    assert elapsed < 5.0


@pytest.mark.bench_smoke
def test_zx_pivot_gadget_smoke():
    """The Table-1 ``plus13mod64`` optimized pair leans on pivot-gadget
    (hundreds of rewrites): its miter reduces to six bare wires and the
    reduction stays fast."""
    from repro.bench import reversible
    from repro.compile.decompose import decompose_to_basis
    from repro.compile.optimize import optimize_circuit
    from repro.perf import PerfCounters
    from repro.zx import circuit_to_zx, full_reduce

    original = reversible.synthesize(reversible.plus_constant_mod(6, 13))
    optimized = optimize_circuit(decompose_to_basis(original), level=2)
    diagram = circuit_to_zx(original).adjoint().compose(
        circuit_to_zx(optimized)
    )

    counters = PerfCounters()
    start = time.perf_counter()
    full_reduce(diagram, counters=counters)
    elapsed = time.perf_counter() - start

    assert counters.counters["zx.pivot_gadget.rewrites"] > 100
    assert diagram.num_spiders == 0
    assert diagram.num_edges == 6
    # Generous bound: this miter takes ~0.3 s; 10 s means something broke.
    assert elapsed < 10.0


@pytest.mark.bench_smoke
def test_isolation_overhead_smoke():
    """Sandboxed execution agrees with in-process and its overhead stays
    bounded: a fork + pipe round-trip costs tens of milliseconds, not
    multiples of the check itself."""
    from repro.harness import run_check

    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(8))
    config = Configuration(strategy="combined", seed=0, timeout=30)

    start = time.perf_counter()
    in_process = EquivalenceCheckingManager(original, compiled, config).run()
    in_process_seconds = time.perf_counter() - start

    start = time.perf_counter()
    isolated = run_check(original, compiled, config, isolate=True)
    isolated_seconds = time.perf_counter() - start

    assert isolated.equivalence == in_process.equivalence
    assert isolated.failure is None
    # Generous bound: sandbox setup is ~0.1 s on this instance.  A 10x
    # factor plus a 2 s fixed allowance means containment went wrong
    # (e.g. spawn instead of fork, or a serialization blowup).
    assert isolated_seconds < in_process_seconds * 10 + 2.0
    overhead = isolated.statistics["isolation"]["overhead_seconds"]
    assert 0 <= overhead < 2.0


@pytest.mark.bench_smoke
def test_portfolio_overhead_smoke():
    """Racing a trivial pair must stay within a fixed multiple of the
    sequential combined schedule: the portfolio's value is on expensive
    cells, but its fork/stagger overhead on cheap ones has to stay
    bounded or `--portfolio` would tax every small instance."""
    from repro.ec.portfolio import portfolio_winner

    original = ghz_state(6)
    compiled = compile_circuit(original, line_architecture(8))

    elapsed = {}
    verdicts = {}
    for label, portfolio in (("sequential", False), ("portfolio", True)):
        config = Configuration(
            strategy="combined", portfolio=portfolio,
            static_analysis=False, timeout=30.0, seed=0,
        )
        start = time.perf_counter()
        result = EquivalenceCheckingManager(original, compiled, config).run()
        elapsed[label] = time.perf_counter() - start
        verdicts[label] = result.equivalence
        assert result.equivalence in POSITIVE, label

    raced = EquivalenceCheckingManager(
        original, compiled,
        Configuration(strategy="combined", portfolio=True,
                      static_analysis=False, timeout=30.0, seed=0),
    ).run()
    assert portfolio_winner(raced) is not None
    assert raced.statistics["portfolio"]["all_reaped"] is True
    # Fixed multiple plus a fork allowance: the sequential arm finishes
    # this pair in ~0.05 s, the race in ~0.2 s.  15x + 2 s means the
    # racer regressed into something pathological.
    assert elapsed["portfolio"] < elapsed["sequential"] * 15 + 2.0


@pytest.mark.bench_smoke
def test_parameterized_smoke():
    """Symbolic-first and instantiate-only parameterized checks agree on
    a seeded ansatz pair, and the symbolic path stays fast: the full
    baseline comparison lives in ``benchmarks/bench_parameterized.py``
    (``BENCH_parameterized.json``); here we only guard its invariants."""
    from repro.fuzz.generator import generate_instance

    # Seed 2 draws an equivalent (split-rotation) pair; the symbolic ZX
    # path proves it for every valuation.
    _, pair = generate_instance(2, family="parameterized")
    assert pair.label == "equivalent"

    elapsed = {}
    verdicts = {}
    for label, symbolic in (("symbolic", True), ("instantiate", False)):
        config = Configuration(
            strategy="parameterized", parameterized_symbolic=symbolic,
            static_analysis=False, timeout=30.0, seed=0,
        )
        start = time.perf_counter()
        result = EquivalenceCheckingManager(
            pair.circuit1, pair.circuit2, config
        ).run()
        elapsed[label] = time.perf_counter() - start
        verdicts[label] = result.equivalence

    assert verdicts["symbolic"] in POSITIVE
    assert verdicts["instantiate"] is Equivalence.PROBABLY_EQUIVALENT
    # The symbolic proof skips all num_instantiations concrete checks;
    # parity with a small allowance still catches a ladder regression.
    assert elapsed["symbolic"] <= elapsed["instantiate"] * 1.1 + 0.05


@pytest.mark.bench_smoke
def test_parameterized_smoke_detects_error():
    """A planted coefficient nudge must yield a separating witness."""
    from repro.circuit import circuit_unitary, unitaries_equivalent
    from repro.circuit.symbolic import instantiate_circuit
    from repro.fuzz.generator import generate_instance

    _, pair = generate_instance(0, family="parameterized")
    assert pair.label == "not_equivalent"
    config = Configuration(strategy="parameterized", timeout=30.0, seed=0)
    result = EquivalenceCheckingManager(
        pair.circuit1, pair.circuit2, config
    ).run()
    assert result.equivalence is Equivalence.NOT_EQUIVALENT
    witness = result.statistics["parameterized"]["witness_valuation"]
    u1 = circuit_unitary(instantiate_circuit(pair.circuit1, witness))
    u2 = circuit_unitary(instantiate_circuit(pair.circuit2, witness))
    assert not unitaries_equivalent(u1, u2)
