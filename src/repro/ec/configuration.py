"""Configuration of an equivalence check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.dd.complex_table import DEFAULT_TOLERANCE
from repro.dd.compute_table import DEFAULT_COMPUTE_TABLE_SIZE


@dataclass
class Configuration:
    """Tunable knobs of :class:`repro.ec.EquivalenceCheckingManager`.

    Attributes:
        strategy: ``"construction"``, ``"alternating"``, ``"simulation"``,
            ``"zx"``, ``"combined"`` (the paper's QCEC setup) or
            ``"stabilizer"`` (exact Clifford-only pre-check; a
            reproduction extension), ``"state"`` (equivalence of the
            prepared states from ``|0...0>`` only) or ``"analysis"``
            (static passes only — sound verdicts or
            ``NO_INFORMATION``, see :mod:`repro.analysis`).
        static_analysis: Run the static analysis pre-pass before any
            checker (default).  A sound non-equivalence witness
            short-circuits the check to ``NOT_EQUIVALENT`` and the cost
            model's advice reorders the ``combined`` schedule; disable
            via CLI ``--no-static-analysis`` for A/B measurements.
        oracle: Gate-selection oracle of the alternating scheme —
            ``"naive"`` (strict 1:1 alternation), ``"proportional"``
            (alternation weighted by the gate-count ratio, QCEC's default
            for unknown circuit relations), ``"lookahead"`` (greedily
            pick the side whose application keeps the DD smaller) or
            ``"compilation_flow"`` (per-gate decomposition-cost profile,
            the dedicated oracle for verifying compilation results —
            reference [38] of the paper).
        num_simulations: Random-stimuli runs for the simulation strategy
            (the paper runs "a sequence of 16 simulation runs").
        stimuli_type: Family of random stimuli — ``"classical"`` (basis
            states, QCEC's default), ``"local_quantum"`` (random product
            stabilizer states) or ``"global_quantum"`` (random entangled
            stabilizer states); see :mod:`repro.ec.stimuli` / [45].
        tolerance: Numerical tolerance of the DD package's complex table.
        fidelity_threshold: Deviation of the Hilbert-Schmidt fidelity /
            per-stimulus fidelity below which circuits count as
            non-equivalent.
        timeout: Wall-clock budget in seconds (None = unlimited); mirrors
            the paper's 1 h hard timeout, scaled to reproduction sizes.
        reconstruct_swaps: Re-assemble CNOT triples into SWAPs so they can
            be absorbed into the tracked permutation (Section 4.1).
        elide_permutations: Absorb SWAP gates into the tracked qubit
            permutation instead of multiplying them into the DD.
        trace_sizes: Record the intermediate DD size after every gate
            application (drives the Fig. 4-style experiments).
        seed: Seed for the simulation strategy's random stimuli.
        compute_table_size: Slots per DD compute table (rounded up to a
            power of two), or ``None`` for unbounded dict-backed tables.
        graceful_degradation: Catch checker failures inside
            :meth:`EquivalenceCheckingManager.run` and degrade them into
            a ``NO_INFORMATION`` result carrying a structured
            ``statistics["failure"]`` record (default), instead of
            propagating the exception.
        memory_limit_mb: Address-space headroom in MiB for sandboxed
            execution via :mod:`repro.harness` (None = inherit).  Only
            enforced when the check runs isolated.
        max_retries: Bounded retries of *transient* failures (crashed or
            lost workers) in :func:`repro.harness.run_check`.
        retry_backoff: Base of the exponential backoff between retries,
            in seconds (delay = ``retry_backoff * 2**attempt``, capped).
        portfolio: Race all applicable strategies as concurrent
            sandboxed children instead of running the ``combined``
            schedule sequentially; the first *sound* verdict wins and
            the losers are SIGKILLed (see :mod:`repro.ec.portfolio`).
            Only meaningful with ``strategy="combined"``.
        portfolio_head_start: Seconds the predicted winner (and the
            cheap simulation falsifier) race alone before the remaining
            strategies launch.  Staggering matters most on few-core
            machines, where every extra concurrent child slows the
            winner; a lane that finishes undecided promotes the next
            pending launch immediately, so the head start never idles
            the machine.
        num_instantiations: Seeded random valuations drawn by the
            ``parameterized`` strategy's instantiation fallback when the
            symbolic paths stay undecided (mqt-qcec defaults to a
            comparable small count; every instantiation dispatches one
            full concrete check).
        parameterized_symbolic: Try the symbolic phase-polynomial and
            symbolic ZX paths before instantiating (default).  ``False``
            measures the instantiate-only baseline.
        instantiation_isolation: Run each instantiated concrete check in
            a sandboxed child process instead of in-process.  Off by
            default — instantiated ansatz pairs are small and fork
            overhead would dominate.
    """

    strategy: str = "combined"
    static_analysis: bool = True
    oracle: str = "proportional"
    num_simulations: int = 16
    stimuli_type: str = "classical"
    tolerance: float = DEFAULT_TOLERANCE
    fidelity_threshold: float = 1e-8
    timeout: Optional[float] = None
    reconstruct_swaps: bool = True
    elide_permutations: bool = True
    trace_sizes: bool = False
    seed: Optional[int] = None
    compute_table_size: Optional[int] = DEFAULT_COMPUTE_TABLE_SIZE
    graceful_degradation: bool = True
    memory_limit_mb: Optional[int] = None
    max_retries: int = 1
    retry_backoff: float = 0.1
    portfolio: bool = False
    portfolio_head_start: float = 0.25
    num_instantiations: int = 8
    parameterized_symbolic: bool = True
    instantiation_isolation: bool = False

    @staticmethod
    def _require_positive_number(name: str, value: object) -> None:
        """A clear error for non-numeric or non-positive knobs."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"{name} must be a number, got {type(value).__name__} "
                f"{value!r}"
            )
        if value != value:  # NaN never compares, so check explicitly
            raise ValueError(f"{name} must be a number, got NaN")
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value!r}")

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        strategies = {
            "construction", "alternating", "simulation", "zx", "combined",
            "stabilizer", "state", "analysis", "parameterized",
        }
        if self.strategy not in strategies:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.oracle not in (
            "naive", "proportional", "lookahead", "compilation_flow",
        ):
            raise ValueError(f"unknown oracle {self.oracle!r}")
        if self.num_simulations < 1:
            raise ValueError("num_simulations must be at least 1")
        from repro.ec.stimuli import STIMULI_TYPES

        if self.stimuli_type not in STIMULI_TYPES:
            raise ValueError(f"unknown stimuli type {self.stimuli_type!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.timeout is not None:
            self._require_positive_number("timeout", self.timeout)
        if self.compute_table_size is not None and self.compute_table_size < 1:
            raise ValueError("compute_table_size must be positive or None")
        if self.memory_limit_mb is not None:
            self._require_positive_number("memory_limit_mb", self.memory_limit_mb)
            if not isinstance(self.memory_limit_mb, int):
                raise ValueError(
                    "memory_limit_mb must be an integer number of MiB, "
                    f"got {self.memory_limit_mb!r}"
                )
        if isinstance(self.max_retries, bool) or not isinstance(
            self.max_retries, int
        ):
            raise ValueError(
                "max_retries must be an integer, got "
                f"{type(self.max_retries).__name__} {self.max_retries!r}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        self._require_positive_number("retry_backoff", self.retry_backoff)
        if not isinstance(self.portfolio, bool):
            raise ValueError(
                f"portfolio must be a bool, got {self.portfolio!r}"
            )
        if self.portfolio and self.strategy != "combined":
            raise ValueError(
                "portfolio racing replaces the sequential combined "
                f"schedule and requires strategy='combined', not "
                f"{self.strategy!r}"
            )
        if isinstance(self.portfolio_head_start, bool) or not isinstance(
            self.portfolio_head_start, (int, float)
        ):
            raise ValueError(
                "portfolio_head_start must be a number, got "
                f"{self.portfolio_head_start!r}"
            )
        if (
            self.portfolio_head_start != self.portfolio_head_start
            or self.portfolio_head_start < 0
        ):
            raise ValueError(
                "portfolio_head_start must be non-negative, got "
                f"{self.portfolio_head_start!r}"
            )
        if isinstance(self.num_instantiations, bool) or not isinstance(
            self.num_instantiations, int
        ):
            raise ValueError(
                "num_instantiations must be an integer, got "
                f"{self.num_instantiations!r}"
            )
        if self.num_instantiations < 1:
            raise ValueError(
                "num_instantiations must be at least 1, got "
                f"{self.num_instantiations!r}"
            )
        if not isinstance(self.parameterized_symbolic, bool):
            raise ValueError(
                "parameterized_symbolic must be a bool, got "
                f"{self.parameterized_symbolic!r}"
            )
        if not isinstance(self.instantiation_isolation, bool):
            raise ValueError(
                "instantiation_isolation must be a bool, got "
                f"{self.instantiation_isolation!r}"
            )
