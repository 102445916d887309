"""Tests for the synthetic Section 5.3 accuracy study."""

import pytest

from repro.analysis.groundtruth import (PairGenerator, evaluate_methods)


class TestPairGenerator:
    def test_deterministic_given_seed(self):
        a = PairGenerator(seed=7, ops=2000).pairs(10)
        b = PairGenerator(seed=7, ops=2000).pairs(10)
        for pa, pb in zip(a, b):
            assert pa.important == pb.important
            assert pa.a.counts() == pb.a.counts()
            assert pa.b.counts() == pb.b.counts()

    def test_mixed_labels(self):
        pairs = PairGenerator(seed=1, ops=2000).pairs(60)
        labels = [p.important for p in pairs]
        assert 10 < sum(labels) < 50

    def test_change_kinds_recorded(self):
        pairs = PairGenerator(seed=2, ops=2000).pairs(80)
        kinds = {p.change for p in pairs}
        assert "noise" in kinds
        assert kinds & {"new_peak", "moved_peak", "mass_shift"}

    def test_unimportant_pairs_same_shape(self):
        pairs = [p for p in PairGenerator(seed=3, ops=5000).pairs(40)
                 if not p.important]
        for p in pairs:
            # Same populated region (same population resampled).
            assert abs(p.a.span()[0] - p.b.span()[0]) <= 3

    def test_count_validation(self):
        with pytest.raises(ValueError):
            PairGenerator().pairs(0)


@pytest.fixture(scope="module")
def study_pairs():
    """The seed-2006 ``(calibration, evaluation)`` pairs, built once."""
    gen = PairGenerator(seed=2006, ops=8000)
    calibration = gen.pairs(120)
    evaluation = gen.pairs(250)
    return calibration, evaluation


class TestEvaluateMethods:
    def test_emd_beats_chi_squared(self, study_pairs):
        calibration, evaluation = study_pairs
        results = evaluate_methods(evaluation, calibration,
                                   methods=["emd", "chi_squared"])
        assert results["emd"].false_rate <= \
            results["chi_squared"].false_rate

    def test_rates_reasonably_low(self, study_pairs):
        calibration, evaluation = study_pairs
        results = evaluate_methods(evaluation, calibration,
                                   methods=["emd"])
        assert results["emd"].false_rate < 0.15

    def test_accuracy_accounting(self):
        gen = PairGenerator(seed=5, ops=3000)
        calibration = gen.pairs(50)
        evaluation = gen.pairs(50)
        results = evaluate_methods(evaluation, calibration,
                                   methods=["total_ops"])
        acc = results["total_ops"]
        assert acc.total == 50
        assert 0 <= acc.false_positives + acc.false_negatives <= 50
        assert acc.false_rate == pytest.approx(
            (acc.false_positives + acc.false_negatives) / 50)
