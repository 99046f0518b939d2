"""Tests for the incremental online learning protocol and replay store."""

import numpy as np
import pytest

from repro.core import EMSTDPNetwork, full_precision_config
from repro.data.synth import Dataset
from repro.incremental import (IOLConfig, IncrementalOnlineLearner,
                               ReplayStore, forgetting_dip, recovery)

from conftest import make_blobs


def blob_datasets(n_classes=6, n_features=12):
    xs, ys = make_blobs(n_features, n_classes, 900, seed=0, task_seed=11)
    tx, ty = make_blobs(n_features, n_classes, 300, seed=1, task_seed=11)
    return Dataset(xs, ys, n_classes=n_classes), Dataset(tx, ty,
                                                         n_classes=n_classes)


class TestReplayStore:
    def test_add_and_sample_balanced(self):
        store = ReplayStore(rng=np.random.default_rng(0))
        for c in (0, 1, 2):
            for i in range(10):
                store.add(np.full(4, float(c)), c)
        xs, ys = store.sample(9)
        assert len(xs) == 9
        counts = np.bincount(ys, minlength=3)
        assert (counts == 3).all()

    def test_capacity_reservoir(self):
        store = ReplayStore(per_class_capacity=5,
                            rng=np.random.default_rng(0))
        for i in range(100):
            store.add(np.array([float(i)]), 0)
        assert len(store) == 5

    def test_sample_empty(self):
        store = ReplayStore()
        xs, ys = store.sample(4)
        assert len(xs) == 0

    def test_classes_property(self):
        store = ReplayStore()
        store.add(np.zeros(2), 3)
        assert store.classes == [3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayStore(per_class_capacity=0)


class TestProtocol:
    @pytest.fixture(scope="class")
    def result(self):
        """One run of the default protocol, read by every test below that
        takes it (the run is deterministic, so one run is every run)."""
        train, test = blob_datasets()
        net = EMSTDPNetwork((12, 20, 6),
                            full_precision_config(seed=2, phase_length=32))
        learner = IncrementalOnlineLearner(net, train, test, IOLConfig(
            initial_classes=2, classes_per_increment=2, n_increments=2,
            rounds_per_increment=3, seed=4))
        return learner.run()

    def test_round_count(self, result):
        assert len(result.records) == 2 * 3

    def test_observed_classes_grow(self, result):
        sizes = [len(r.observed_classes) for r in result.records]
        assert sizes[0] == 4 and sizes[-1] == 6
        assert sizes == sorted(sizes)

    def test_introduction_rounds_marked(self, result):
        intro = result.curves()["introduction_rounds"]
        assert intro == [0, 3]

    def test_step2_recovers_on_average(self, result):
        a1 = np.mean([r.acc_after_step1 for r in result.records])
        a2 = np.mean([r.acc_after_step2 for r in result.records])
        assert a2 >= a1 - 0.02

    def test_final_accuracy_reasonable(self, result):
        assert result.records[-1].acc_after_step2 > 0.5

    def test_mask_cleared_after_run(self):
        train, test = blob_datasets()
        net = EMSTDPNetwork((12, 20, 6),
                            full_precision_config(seed=2, phase_length=32))
        learner = IncrementalOnlineLearner(
            net, train, test, IOLConfig(initial_classes=2, n_increments=1,
                                        rounds_per_increment=2, seed=4))
        learner.run()
        assert net.class_mask.all()

    def test_metrics_helpers(self, result):
        assert isinstance(forgetting_dip(result), float)
        assert isinstance(recovery(result), float)
