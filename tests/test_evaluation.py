import numpy as np
import pytest

from cdfsvm.core import KernelSpec, Scaler
from cdfsvm.evaluation import (BoundaryLine, accuracy, boundary_from_linear,
                               confusion_counts, dist_to_bayes, evaluate,
                               format_report_table, gmean, reports_to_csv, vac)
from cdfsvm.solvers import KernelModel, predict


def test_accuracy_examples():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([1, 0, 1], [0, 1, 0]) == 0.0
    assert accuracy([1, 0, 1, 0], [1, 0, 1, 1]) == 0.75
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1, 0], [1])


def test_vac_examples():
    y = [1, 0, 1]
    assert vac(y, y, [1.0, 1.0, 1.0]) == accuracy(y, y)
    assert vac([1, 0, 1], [0, 1, 0], [0.3, 0.8, 0.5]) == 0.0
    got = vac([1, 0, 1], [1, 1, 1], [0.2, 0.9, 0.4])
    assert got == pytest.approx((0.2 + 0.4) / 3.0, abs=1e-15)
    with pytest.raises(ValueError):
        vac(y, y, [1.0, 0.0, 1.0])


def test_vac_degenerates_to_accuracy():
    rng = np.random.default_rng(40)
    y_true = rng.integers(0, 2, 50)
    y_pred = rng.integers(0, 2, 50)
    assert vac(y_true, y_pred, np.ones(50)) == accuracy(y_true, y_pred)


def test_vac_bounded_by_accuracy_for_unit_weights():
    rng = np.random.default_rng(41)
    y_true = rng.integers(0, 2, 80)
    y_pred = rng.integers(0, 2, 80)
    v = rng.uniform(0.05, 1.0, 80)
    assert vac(y_true, y_pred, v) <= accuracy(y_true, y_pred) + 1e-15


def test_gmean_examples():
    assert gmean([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0
    assert gmean([0, 1, 0, 1], [1, 1, 1, 1]) == 0.0  # specificity 0
    # sensitivity 0.8 (4/5), specificity 0.5 (1/2)
    y_true = [1, 1, 1, 1, 1, 0, 0]
    y_pred = [1, 1, 1, 1, 0, 0, 1]
    assert gmean(y_true, y_pred) == pytest.approx(np.sqrt(0.4), rel=1e-12)
    assert gmean([1, 1, 1], [1, 1, 0]) == 0.0  # one-class truth


def test_complement_invariance():
    rng = np.random.default_rng(42)
    y_true = rng.integers(0, 2, 60)
    y_pred = rng.integers(0, 2, 60)
    assert accuracy(1 - y_true, 1 - y_pred) == accuracy(y_true, y_pred)
    assert gmean(1 - y_true, 1 - y_pred) == pytest.approx(gmean(y_true, y_pred),
                                                          abs=1e-12)


def test_confusion_and_report():
    y_true = [1, 1, 0, 0, 1]
    y_pred = [1, 0, 0, 1, 1]
    tp, fp, tn, fn = confusion_counts(y_true, y_pred)
    assert (tp, fp, tn, fn) == (2, 1, 1, 1)
    rep = evaluate(y_true, y_pred)
    assert rep.acc == pytest.approx((tp + tn) / 5.0)
    assert rep.vac == rep.acc  # degenerate weights
    assert rep.gmean == pytest.approx(np.sqrt(rep.sensitivity * rep.specificity))
    v = np.array([0.5, 1.0, 1.0, 0.2, 0.8])
    rep2 = evaluate(y_true, y_pred, v, v_provenance="test-weights")
    assert rep2.vac <= max(v)
    assert rep2.v_provenance == "test-weights"


def test_report_table_and_csv(tmp_path):
    rep = evaluate([1, 0], [1, 0])
    table = format_report_table({"toy": rep})
    assert "toy" in table and "acc" in table
    path = tmp_path / "reports.csv"
    reports_to_csv({"toy": rep}, path, header_comment="seed=1")
    text = path.read_text()
    assert text.startswith("# seed=1\n")
    assert "toy" in text


def linear_model(w, bias, scaler=None, score_scale=1.0, score_shift=0.0):
    # two support points encode an arbitrary weight vector: w = c0*x0 + c1*x1
    w = np.asarray(w, dtype=float)
    support = np.vstack([w, -w])
    norm2 = float(w @ w)
    coef = np.array([0.5, -0.5]) / norm2
    caps = np.abs(coef) + 1.0
    scaler = scaler or Scaler(np.zeros(2), np.ones(2))
    return KernelModel(coef, bias, support, KernelSpec.linear(), scaler,
                       "eps-l1svm", score_scale=score_scale,
                       score_shift=score_shift, caps=caps, epsilon=0.0)


def test_boundary_matches_reference_line():
    model = linear_model([2.0, -1.0], 0.5)
    line = boundary_from_linear(model)
    assert line.slope == pytest.approx(2.0, abs=1e-12)
    assert line.intercept == pytest.approx(0.0, abs=1e-12)


def test_boundary_horizontal():
    model = linear_model([0.0, 1.0], 0.5)
    line = boundary_from_linear(model)
    assert line.slope == 0.0
    assert line.intercept == pytest.approx(0.0, abs=1e-12)


def test_boundary_vertical_rejected():
    model = linear_model([1.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="feature 2"):
        boundary_from_linear(model)


def test_boundary_points_score_threshold():
    rng = np.random.default_rng(43)
    for _ in range(10):
        w = rng.normal(size=2)
        if abs(w[1]) < 0.2:
            continue
        bias = rng.normal()
        mins = rng.normal(size=2)
        maxs = mins + rng.uniform(0.5, 3.0, size=2)
        scaler = Scaler(mins, maxs)
        model = linear_model(w, bias, scaler)
        line = boundary_from_linear(model)
        x1 = rng.uniform(mins[0], maxs[0], size=5)
        pts = np.column_stack([x1, line.slope * x1 + line.intercept])
        inside = np.all((pts >= mins) & (pts <= maxs), axis=1)
        if not inside.any():
            continue
        scores = predict(model, scaler.transform(pts[inside]))
        assert np.allclose(scores, 0.5, atol=1e-9)


def test_boundary_honors_score_affine_map():
    # csvm-style mapping: raw sign score folded into the 0.5 threshold
    model = linear_model([1.0, 1.0], -1.0, score_scale=0.5, score_shift=0.5)
    line = boundary_from_linear(model)
    x1 = np.array([0.2, 0.5, 0.8])
    pts = np.column_stack([x1, line.slope * x1 + line.intercept])
    scores = predict(model, pts)
    assert np.allclose(scores, 0.5, atol=1e-12)


def test_dist_to_bayes_examples():
    assert dist_to_bayes([2.0, 2.0, 2.0], [0.0, 0.0, 0.0]) == 0.0
    assert dist_to_bayes([1.0, 3.0], [0.0, 0.0]) == 0.0  # mean-centered slope
    got = dist_to_bayes([1.0, 2.0], [1.0, 1.0])
    assert got == pytest.approx(0.5 * np.sqrt(2.0) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        dist_to_bayes([2.0], [0.0])


def test_dist_to_bayes_permutation_invariant():
    rng = np.random.default_rng(44)
    ks = rng.normal(2.0, 0.3, 20)
    qs = rng.normal(0.0, 0.1, 20)
    base = dist_to_bayes(ks, qs)
    perm = rng.permutation(20)
    assert dist_to_bayes(ks[perm], qs[perm]) == pytest.approx(base, rel=1e-12)


def test_boundary_line_validation():
    with pytest.raises(ValueError):
        BoundaryLine(np.inf, 0.0)
