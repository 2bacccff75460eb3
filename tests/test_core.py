import numpy as np
import pytest

from cdfsvm.core import (Dataset, GKernelSpec, KernelSpec, Scaler, decide,
                         normalize, subset, to_internal_labels)


def test_normalize_affine_identity():
    feats, scaler = normalize(np.array([[2.0], [4.0], [6.0]]))
    assert np.allclose(feats[:, 0], [0.0, 0.5, 1.0])
    assert scaler.mins[0] == 2.0 and scaler.maxs[0] == 6.0


def test_normalize_constant_column_maps_to_half():
    feats, _ = normalize(np.array([[3.0], [3.0], [3.0]]))
    assert np.all(feats == 0.5)


def test_normalize_with_provided_scaler():
    scaler = Scaler(np.array([0.0]), np.array([2.0]))
    feats, _ = normalize(np.array([[0.0], [1.0]]), scaler)
    assert np.allclose(feats[:, 0], [0.0, 0.5])


def test_normalize_clips_outside_provided_scaler():
    scaler = Scaler(np.array([0.0]), np.array([1.0]))
    feats, _ = normalize(np.array([[-1.0], [2.0]]), scaler)
    assert np.all(feats >= 0.0) and np.all(feats <= 1.0)


def test_normalize_idempotent_bit_identical():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(13, 4)) * rng.uniform(0.5, 9.0, size=4)
    raw[:, 2] = 7.25  # constant column
    feats, _ = normalize(raw)
    again, _ = normalize(feats)
    assert np.array_equal(feats, again)


def test_normalize_dimension_mismatch():
    scaler = Scaler(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        normalize(np.zeros((3, 3)), scaler)


def test_scaler_inverse_round_trip():
    rng = np.random.default_rng(1)
    raw = rng.normal(2.0, 5.0, size=(20, 3))
    feats, scaler = normalize(raw)
    assert np.allclose(scaler.inverse(feats), raw, atol=1e-12)


def test_decide_examples():
    assert decide(0.9) == 1
    assert decide(0.1) == 0
    assert decide(0.5) == 0  # documented tie-break


def test_decide_complement_symmetry():
    rng = np.random.default_rng(2)
    s = rng.random(200)
    s = s[np.abs(s - 0.5) > 1e-9]
    assert np.all(decide(1.0 - s) == 1 - decide(s))


def test_decide_rejects_non_finite():
    with pytest.raises(ValueError):
        decide(np.nan)
    with pytest.raises(ValueError):
        decide([0.2, np.inf])


def test_to_internal_labels_conventions():
    assert np.array_equal(to_internal_labels([0, 1, 1, 0]), [0, 1, 1, 0])
    assert np.array_equal(to_internal_labels([-1, 1, -1]), [0, 1, 0])
    assert np.array_equal(to_internal_labels(["a", "b"], positive_label="b"), [0, 1])
    with pytest.raises(ValueError):
        to_internal_labels([1, 2, 3])
    with pytest.raises(ValueError):
        to_internal_labels(["x", "y"])  # needs an explicit positive token


def test_dataset_validation():
    scaler = Scaler(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.5]]), np.array([1]), scaler)  # m < 2
    with pytest.raises(ValueError):
        Dataset(np.array([[0.2], [1.4]]), np.array([0, 1]), scaler)  # out of range
    with pytest.raises(ValueError):
        Dataset(np.array([[0.2], [0.4]]), np.array([0, 2]), scaler)  # bad label
    data = Dataset(np.array([[0.2], [0.4]]), np.array([0, 1]), scaler)
    assert data.m == 2 and data.d == 1 and data.has_both_classes
    assert data.class_counts() == (1, 1)


def test_dataset_immutable():
    scaler = Scaler(np.zeros(1), np.ones(1))
    data = Dataset(np.array([[0.2], [0.4]]), np.array([0, 1]), scaler)
    with pytest.raises(ValueError):
        data.features[0, 0] = 0.9


def test_subset_keeps_scaler():
    scaler = Scaler(np.zeros(1), np.ones(1))
    data = Dataset(np.array([[0.1], [0.4], [0.9]]), np.array([0, 1, 1]), scaler, "toy")
    sub = subset(data, [0, 2])
    assert sub.m == 2
    assert sub.scaler is data.scaler
    assert np.array_equal(sub.labels, [0, 1])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("rbf", delta=0.0)
    with pytest.raises(ValueError):
        KernelSpec("poly")
    assert KernelSpec.linear().kind == "linear"
    spec = KernelSpec.rbf(0.5)
    assert KernelSpec.from_dict(spec.to_dict()) == spec


def test_g_kernel_spec_validation():
    with pytest.raises(ValueError):
        GKernelSpec("gaussian", sigma=-1.0)
    assert GKernelSpec.step().kind == "step"
    spec = GKernelSpec.gaussian(2.0)
    assert GKernelSpec.from_dict(spec.to_dict()) == spec
