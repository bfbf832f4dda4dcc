"""Use-case 1 of the case study: verifying compilation flow results.

Compiles several of the paper's benchmark algorithms to the 65-qubit
heavy-hex "Manhattan" architecture and verifies each compilation with both
paradigms, printing per-instance statistics — including the intermediate
DD size trace that illustrates the alternating scheme of the paper's
Fig. 4 (the product ``G' G†`` stays near the identity throughout), and the
spider counts of the ZX reduction.

Run:  python examples/verify_compilation.py
"""

from repro.bench import algorithms
from repro.compile import compile_circuit, manhattan_architecture
from repro.ec import AlternatingChecker, Configuration, zx_check


def main() -> None:
    device = manhattan_architecture()
    print(f"target device: {device.name} "
          f"({device.num_qubits} qubits, {len(device.edges)} couplers)\n")

    benchmarks = [
        algorithms.ghz_state(16),
        algorithms.graph_state(12, seed=0),
        algorithms.qft(6),
        algorithms.qpe_exact(5),
        algorithms.grover(4),
    ]

    for original in benchmarks:
        compiled = compile_circuit(original, device)
        print(f"{original.name}: |G| = {original.num_gates}, "
              f"|G'| = {compiled.num_gates}")

        # --- DD paradigm: alternating scheme with size trace (Fig. 4) ---
        config = Configuration(
            strategy="alternating", trace_sizes=True, oracle="proportional"
        )
        dd = AlternatingChecker(original, compiled, config).run()
        trace = dd.statistics["dd_size_trace"]
        print(f"  DD : {dd.equivalence.value:32} {dd.time:6.2f}s  "
              f"max intermediate DD size = {dd.statistics['max_dd_size']} "
              f"nodes (identity would be {dd.statistics['active_qubits']})")
        sparkline = "".join(
            " .:-=+*#%@"[min(9, size * 10 // (max(trace) + 1))]
            for size in trace[:: max(1, len(trace) // 60)]
        )
        print(f"       size trace |{sparkline}|")

        # --- ZX paradigm: reduce G'G† to bare wires ----------------------
        zx = zx_check(original, compiled, Configuration(strategy="zx"))
        print(f"  ZX : {zx.equivalence.value:32} {zx.time:6.2f}s  "
              f"{zx.statistics['initial_spiders']} -> "
              f"{zx.statistics['spiders_remaining']} spiders, "
              f"{zx.statistics['zx_rewrites']} rewrites\n")


if __name__ == "__main__":
    main()
