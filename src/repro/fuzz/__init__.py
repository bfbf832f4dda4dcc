"""Differential fuzzing of the equivalence-checking paradigms.

The paper's case study argues that the DD and ZX paradigms must agree on
every ``(G, G')`` pair — equivalent, one gate missing, or a flipped CNOT
— yet a fixed benchmark table only ever exercises a fixed set of circuit
shapes.  This package turns the claim into a *generative* test:

* :mod:`repro.fuzz.generator` — a seeded random-instance generator
  producing circuits from tunable families (Clifford-only, Clifford+T,
  parameterized rotations, measurement-free ancillae) and labeled pairs
  via metamorphic mutation or the :mod:`repro.compile` pipeline,
* :mod:`repro.fuzz.mutators` — equivalence-preserving mutations (gate
  commutation, inverse-pair insertion, SWAP/permutation relabeling,
  rebasing) and equivalence-breaking ones with a known witness (gate
  deletion, CNOT flip, phase nudge), so every pair carries a ground
  truth label,
* :mod:`repro.fuzz.oracle` — the differential oracle running all five
  checker strategies (DD alternating/reference, ZX, stabilizer when
  Clifford, random-stimuli simulation) and the static analyzer, plus the
  dense unitary ground truth for small widths, and flagging any
  disagreement,
* :mod:`repro.fuzz.shrink` — greedy minimization of a failing instance
  by gate removal and qubit projection while the disagreement
  reproduces,
* :mod:`repro.fuzz.corpus` — persistence of minimized repros as QASM
  plus a JSONL journal entry under a ``corpus/`` seed directory,
* :mod:`repro.fuzz.runner` — the campaign driver behind
  ``python -m repro fuzz`` (exit code 0 = no disagreements, 2 = a
  minimized repro was written).

Entry point::

    from repro.fuzz import FuzzSettings, run_fuzz

    outcome = run_fuzz(FuzzSettings(seed=0, budget=300, family="clifford_t"))
    outcome.exit_code  # 0 or 2
"""

from repro.fuzz.generator import (
    FAMILIES,
    FuzzInstance,
    LabeledPair,
    generate_instance,
    random_family_circuit,
)
from repro.fuzz.mutators import (
    BREAKING_MUTATORS,
    MUTATORS,
    PRESERVING_MUTATORS,
    MutationNotApplicable,
)
from repro.fuzz.oracle import DifferentialOracle, OracleReport
from repro.fuzz.shrink import shrink_instance
from repro.fuzz.corpus import persist_repro
from repro.fuzz.runner import FuzzOutcome, FuzzSettings, run_fuzz

__all__ = [
    "BREAKING_MUTATORS",
    "DifferentialOracle",
    "FAMILIES",
    "FuzzInstance",
    "FuzzOutcome",
    "FuzzSettings",
    "LabeledPair",
    "MUTATORS",
    "MutationNotApplicable",
    "OracleReport",
    "PRESERVING_MUTATORS",
    "generate_instance",
    "persist_repro",
    "random_family_circuit",
    "run_fuzz",
    "shrink_instance",
]
