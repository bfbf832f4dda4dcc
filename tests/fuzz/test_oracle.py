"""Tests for the cross-paradigm differential oracle (`repro.fuzz.oracle`)."""

import dataclasses

import pytest

from repro.circuit import QuantumCircuit
from repro.ec import Configuration
from repro.ec.results import Equivalence
from repro.fuzz.generator import LabeledPair, generate_instance
from repro.fuzz.mutators import LABEL_EQUIVALENT, LABEL_NOT_EQUIVALENT
from repro.fuzz.oracle import STRATEGY_MATRIX, DifferentialOracle


def _oracle(**kwargs):
    kwargs.setdefault(
        "configuration", Configuration(timeout=20.0, seed=0)
    )
    return DifferentialOracle(**kwargs)


class TestStrategyMatrix:
    def test_covers_all_six_strategies(self):
        names = [name for name, _ in STRATEGY_MATRIX]
        assert names == [
            "dd_alternating",
            "dd_reference",
            "zx",
            "stabilizer",
            "simulation",
            "static_analysis",
        ]

    def test_checker_participants_isolate_the_analyzer(self):
        # The six checker strategies must run with the static pre-pass
        # disabled: a pre-pass short-circuit would overwrite their own
        # verdicts and destroy the differential isolation (e.g. the
        # simulation participant would stop reporting its own misses).
        for name, overrides in STRATEGY_MATRIX:
            if name == "static_analysis":
                assert overrides["strategy"] == "analysis"
            else:
                assert overrides["static_analysis"] is False, name

    def test_stabilizer_skipped_on_non_clifford(self):
        pair = LabeledPair(
            QuantumCircuit(1).t(0),
            QuantumCircuit(1).t(0),
            LABEL_EQUIVALENT,
            "identity",
        )
        report = _oracle().check(pair)
        assert "stabilizer" in report.skipped
        assert "stabilizer" not in report.results

    def test_stabilizer_runs_on_clifford(self):
        pair = LabeledPair(
            QuantumCircuit(2).h(0).cx(0, 1),
            QuantumCircuit(2).h(0).cx(0, 1),
            LABEL_EQUIVALENT,
            "identity",
        )
        report = _oracle().check(pair)
        assert report.results["stabilizer"].equivalence in (
            Equivalence.EQUIVALENT,
            Equivalence.EQUIVALENT_UP_TO_GLOBAL_PHASE,
        )


class TestAgreementOnLabeledPairs:
    @pytest.mark.parametrize("family", ("clifford", "clifford_t"))
    @pytest.mark.parametrize("seed", range(5))
    def test_generated_pairs_agree(self, family, seed):
        _, pair = generate_instance(seed, family)
        report = _oracle().check(pair)
        assert report.agreed, report.disagreements

    def test_truth_matches_label_on_small_pairs(self):
        for seed in range(8):
            _, pair = generate_instance(seed, "clifford_t")
            if pair.num_qubits > 8:
                continue
            report = _oracle().check(pair)
            truth_positive = report.truth != Equivalence.NOT_EQUIVALENT.value
            assert truth_positive == (pair.label == LABEL_EQUIVALENT)

    def test_probably_equivalent_miss_is_not_a_disagreement(self):
        # A pure diagonal error: classical stimuli are blind to it, the
        # proving checkers are not — the oracle must record the miss but
        # not flag the simulation as buggy.
        pair = LabeledPair(
            QuantumCircuit(1),
            QuantumCircuit(1).z(0),
            LABEL_NOT_EQUIVALENT,
            "phase_nudge",
        )
        report = _oracle().check(pair)
        assert report.agreed, report.disagreements
        assert report.missed_by_simulation


class TestVerdictHook:
    def test_lying_checker_is_flagged(self):
        def lie(name, pair, result):
            if name == "zx":
                return dataclasses.replace(
                    result, equivalence=Equivalence.NOT_EQUIVALENT
                )
            return result

        pair = LabeledPair(
            QuantumCircuit(2).h(0).cx(0, 1),
            QuantumCircuit(2).h(0).cx(0, 1),
            LABEL_EQUIVALENT,
            "identity",
        )
        report = _oracle(verdict_hook=lie).check(pair)
        assert not report.agreed
        kinds = {d["kind"] for d in report.disagreements}
        assert "cross_checker" in kinds
        assert "false_negative" in kinds
        negatives = {
            d["negative"]
            for d in report.disagreements
            if d["kind"] == "cross_checker"
        }
        assert negatives == {"zx"}

    def test_false_positive_against_dense_truth(self):
        def lie(name, pair, result):
            if name == "dd_alternating":
                return dataclasses.replace(
                    result, equivalence=Equivalence.EQUIVALENT
                )
            return result

        pair = LabeledPair(
            QuantumCircuit(2).h(0).cx(0, 1),
            QuantumCircuit(2).h(0).cx(0, 1).x(0),
            LABEL_NOT_EQUIVALENT,
            "gate_inserted",
        )
        report = _oracle(verdict_hook=lie).check(pair)
        assert {
            ("false_positive", "dd_alternating")
        } <= {
            (d["kind"], d.get("checker"))
            for d in report.disagreements
        }

    def test_no_information_never_disagrees(self):
        def degrade(name, pair, result):
            return dataclasses.replace(
                result, equivalence=Equivalence.NO_INFORMATION
            )

        _, pair = generate_instance(1, "clifford")
        report = _oracle(verdict_hook=degrade).check(pair)
        assert report.agreed


class TestLabelVsTruth:
    def test_mislabeled_pair_detected(self):
        # A deliberately wrong label simulates a mutator bug: the dense
        # ground truth must override it and flag the discrepancy.
        pair = LabeledPair(
            QuantumCircuit(1).h(0),
            QuantumCircuit(1).h(0),
            LABEL_NOT_EQUIVALENT,
            "bogus_mutation",
        )
        report = _oracle().check(pair)
        assert {"kind": "label_vs_truth", "label": LABEL_NOT_EQUIVALENT,
                "truth": Equivalence.EQUIVALENT.value} in report.disagreements

    def test_report_serializes(self):
        _, pair = generate_instance(3, "clifford")
        report = _oracle().check(pair)
        payload = report.to_dict()
        assert set(payload) == {
            "label", "truth", "verdicts", "skipped",
            "disagreements", "missed_by_simulation",
        }
        assert all(isinstance(v, str) for v in payload["verdicts"].values())
