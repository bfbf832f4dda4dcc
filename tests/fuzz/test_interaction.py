"""Cross-feature interaction sweep over 200 small labeled fuzz pairs.

The bounded compute tables are a performance feature and must never
change verdicts: the sweep drives every pair through the DD checker with
a deliberately tiny compute table (maximum eviction pressure) and
asserts verdict equality with the unbounded baseline pair by pair.  The
same pairs check that a decisive ZX verdict never contradicts the
metamorphic label, and that the compute-table knob (which the ZX
strategy never reads) leaves ZX verdicts untouched.
"""

import dataclasses

import pytest

from repro.ec import Configuration, EquivalenceCheckingManager
from repro.ec.results import Equivalence
from repro.fuzz.generator import FAMILIES, generate_instance
from repro.fuzz.mutators import MutationNotApplicable

NUM_PAIRS = 200


def _pairs():
    pairs = []
    seed = 0
    while len(pairs) < NUM_PAIRS:
        family = FAMILIES[seed % len(FAMILIES)]
        try:
            _, pair = generate_instance(
                seed, family, num_qubits=3, num_gates=8
            )
            pairs.append((seed, pair))
        except MutationNotApplicable:
            pass
        seed += 1
    return pairs


@pytest.fixture(scope="module")
def labeled_pairs():
    return _pairs()


def _verdict(pair, config):
    manager = EquivalenceCheckingManager(
        pair.circuit1, pair.circuit2, config
    )
    return manager.run().equivalence


class TestComputeTablePressure:
    def test_tiny_tables_keep_dd_verdicts(self, labeled_pairs):
        base = Configuration(strategy="alternating", timeout=20.0, seed=0)
        tiny = dataclasses.replace(base, compute_table_size=16)
        unbounded = dataclasses.replace(base, compute_table_size=None)
        mismatches = [
            (seed, pair.recipe)
            for seed, pair in labeled_pairs
            if _verdict(pair, tiny) is not _verdict(pair, unbounded)
        ]
        assert not mismatches, f"verdict drift under eviction: {mismatches}"


class TestZxSoundness:
    def test_decisive_zx_verdicts_are_sound(self, labeled_pairs):
        # A decisive ZX verdict may never contradict the metamorphic label.
        from repro.fuzz.mutators import LABEL_EQUIVALENT

        config = Configuration(strategy="zx", timeout=20.0, seed=0)
        unsound = []
        for seed, pair in labeled_pairs:
            verdict = _verdict(pair, config)
            if (
                verdict is Equivalence.NOT_EQUIVALENT
                and pair.label == LABEL_EQUIVALENT
            ):
                unsound.append((seed, pair.recipe))
            if (
                verdict
                in (
                    Equivalence.EQUIVALENT,
                    Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
                )
                and pair.label != LABEL_EQUIVALENT
            ):
                unsound.append((seed, pair.recipe))
        assert not unsound, f"unsound ZX verdicts: {unsound}"


class TestCombinedPressure:
    def test_tiny_tables_leave_zx_verdicts_alone(self, labeled_pairs):
        # one in four pairs
        sample = labeled_pairs[::4]
        stressed = Configuration(
            strategy="zx", timeout=20.0, seed=0, compute_table_size=16
        )
        reference = Configuration(strategy="zx", timeout=20.0, seed=0)
        for seed, pair in sample:
            assert _verdict(pair, stressed) is _verdict(
                pair, reference
            ), f"seed {seed} ({pair.recipe})"
