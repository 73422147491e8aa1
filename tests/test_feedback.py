"""Dual-model validation, explanations, corrections, and weighted fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfl import feedback
from fleetfl.models import ModelParams, evaluate, predict, train_local
from fleetfl.telemetry import NodePartition


def test_explain_zero_weight_feature_is_inert():
    params = ModelParams(np.array([2.0, 0.0]), 0.0)
    rng = np.random.default_rng(1)
    for trial in range(10):
        background = rng.normal(size=(30, 2))
        expl = feedback.explain(params, np.array([0.5, -0.5]), background, 50, seed=trial)
        assert expl.attributions[1] < 0.01
        assert expl.attributions[1] < expl.attributions[0]


def test_explain_constant_model_gives_zero_attributions():
    params = ModelParams.zeros(3)
    background = np.random.default_rng(2).normal(size=(20, 3))
    expl = feedback.explain(params, np.zeros(3), background, 20, seed=0)
    assert np.all(expl.attributions < 1e-9)


def test_explain_symmetric_weights_get_equal_attributions():
    params = ModelParams(np.array([1.0, 1.0]), 0.0)
    background = np.random.default_rng(3).normal(size=(500, 2))
    expl = feedback.explain(params, np.array([0.1, 0.1]), background, 200, seed=0)
    a, b = expl.attributions
    assert abs(a - b) / max(a, b) < 0.10


def test_explain_validates_inputs():
    params = ModelParams.zeros(2)
    with pytest.raises(ValueError):
        feedback.explain(params, np.zeros(2), np.zeros((0, 2)), 5, seed=0)
    with pytest.raises(ValueError):
        feedback.explain(params, np.zeros(3), np.zeros((5, 2)), 5, seed=0)


def test_explain_stability_in_unit_interval():
    params = ModelParams(np.array([1.0, -2.0]), 0.3)
    background = np.random.default_rng(4).normal(size=(40, 2))
    expl = feedback.explain(params, np.array([1.0, 1.0]), background, 10, seed=5)
    assert 0.0 <= expl.stability <= 1.0


def _cfg(seed=0, repeats=5):
    return feedback.ExplainConfig(n_repeats=repeats, seed=seed)


def test_identical_models_agree_fully_with_no_flags():
    m = ModelParams(np.array([1.0, -1.0]), 0.2)
    X = np.random.default_rng(6).normal(size=(6, 2))
    report = feedback.validate_predictions(m, m, X, _cfg())
    assert report.agreement_rate == 1.0
    assert report.explanation_consistency == 1.0
    assert report.flagged == []


def test_negated_model_disagrees_everywhere():
    m1 = ModelParams(np.array([1.0, 2.0]), 0.0)
    m2 = ModelParams(np.array([-1.0, -2.0]), 0.0)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 2)) + 1.0  # keep margins away from zero
    X = X[np.abs(X @ m1.weights) > 0.2]
    report = feedback.validate_predictions(m1, m2, X, _cfg())
    assert report.agreement_rate == 0.0
    assert sorted(report.flagged) == list(range(len(X)))


def test_validation_breaks_attribution_ties_toward_lowest_index():
    # a constant model attributes exactly 0 to every feature, so its top feature
    # is feature 0, the same as a model that only weighs feature 0
    flat = ModelParams(np.zeros(3), 5.0)
    first = ModelParams(np.array([0.1, 0.0, 0.0]), 5.0)
    X = np.random.default_rng(11).normal(size=(6, 3))
    report = feedback.validate_predictions(flat, first, X, _cfg())
    assert report.explanation_consistency == 1.0
    assert report.flagged == []


def test_hand_built_disagreements_flag_exactly():
    # dim-1 models: explanations always agree on the single feature, so a sample
    # is flagged exactly when the thresholded predictions differ (x != 0)
    m1 = ModelParams(np.array([1.0]), 0.0)
    m2 = ModelParams(np.array([-1.0]), 0.0)
    X = np.array([[1.0], [0.0], [-2.0], [3.0], [0.0], [5.0], [-1.0], [0.0], [2.0], [-4.0]])
    report = feedback.validate_predictions(m1, m2, X, _cfg())
    assert report.flagged == [0, 2, 3, 5, 6, 8, 9]
    assert report.agreement_rate == pytest.approx(0.3)
    assert report.explanation_consistency == 1.0


def test_validate_rejects_empty_or_mismatched_inputs():
    m = ModelParams.zeros(2)
    with pytest.raises(ValueError):
        feedback.validate_predictions(m, m, np.zeros((0, 2)), _cfg())
    with pytest.raises(ValueError):
        feedback.validate_predictions(m, ModelParams.zeros(3), np.zeros((2, 2)), _cfg())
    with pytest.raises(ValueError, match="2-D array"):
        feedback.validate_predictions(m, m, np.zeros(2), _cfg())
    with pytest.raises(ValueError, match="2-D array"):
        feedback.validate_predictions(m, m, np.zeros((2, 3)), _cfg())
    with pytest.raises(ValueError, match="finite"):
        feedback.validate_predictions(m, m, np.array([[0.0, 1.0], [np.nan, 0.0]]), _cfg())
    with pytest.raises(ValueError):
        feedback.validate_predictions(m, m, np.zeros((2, 2)), _cfg(repeats=0))


def _reference_explain(params, sample, background, n_repeats, seed):
    """Permutation importance with one scalar prediction per perturbation;
    returns (attributions, stability)."""
    rng = np.random.default_rng(seed)
    base = predict(params, sample)
    diffs = np.empty((n_repeats, params.dim))
    for r in range(n_repeats):
        rows = rng.integers(0, background.shape[0], size=params.dim)
        for j in range(params.dim):
            perturbed = sample.copy()
            perturbed[j] = background[rows[j], j]
            diffs[r, j] = abs(base - predict(params, perturbed))
    attributions = diffs.mean(axis=0)
    spread = diffs.std(axis=0).mean()
    stability = float(np.clip(1.0 - spread / (attributions.mean() + 1e-12), 0.0, 1.0))
    return attributions, stability


def _top_feature(attributions):
    """The tie rule: argmax of |attribution|, ties broken by lowest feature index."""
    return int(np.argmax(np.abs(attributions)))


def _reference_validate(model1, model2, X, cfg):
    """Per-sample (same prediction, same top feature, top feature clear of the
    runner-up by more than 1e-9 in both models' explanations)."""
    out = []
    for i, x in enumerate(X):
        seed = feedback._sample_seed(cfg.seed, i)
        tops, clear = [], True
        for m in (model1, model2):
            attr, _ = _reference_explain(m, x, X, cfg.n_repeats, seed)
            top2 = np.sort(attr)[-2:]
            clear = clear and (attr.size == 1 or top2[1] - top2[0] > 1e-9)
            tops.append(_top_feature(attr))
        same_pred = (predict(model1, x) >= 0.5) == (predict(model2, x) >= 0.5)
        out.append((same_pred, tops[0] == tops[1], clear))
    return out


def _random_case(seed):
    rng = np.random.default_rng(seed)
    d, n, repeats = rng.integers(1, 17), rng.integers(1, 21), rng.integers(1, 9)
    X = rng.normal(size=(n, d))
    m1 = ModelParams(rng.normal(size=d), float(rng.normal()))
    m2 = ModelParams(m1.weights + rng.normal(scale=0.5, size=d), float(rng.normal()))
    return m1, m2, X, _cfg(seed=seed, repeats=int(repeats))


@pytest.mark.parametrize("case", range(40))
def test_batched_explain_matches_the_scalar_loop(case):
    m1, _, X, cfg = _random_case(case)
    for i in range(len(X)):
        expl = feedback.explain(m1, X[i], X, cfg.n_repeats, seed=case + i, sample_id=i)
        attr, stability = _reference_explain(m1, X[i], X, cfg.n_repeats, case + i)
        np.testing.assert_allclose(expl.attributions, attr, rtol=0, atol=1e-12)
        assert abs(expl.stability - stability) <= 1e-12


@pytest.mark.parametrize("case", range(40))
def test_batched_validation_matches_the_scalar_loop(case):
    m1, m2, X, cfg = _random_case(case)
    report = feedback.validate_predictions(m1, m2, X, cfg)
    ref = _reference_validate(m1, m2, X, cfg)
    assert all(type(i) is int for i in report.flagged)
    assert report.flagged == sorted(report.flagged)
    assert report.agreement_rate == sum(p for p, _, _ in ref) / len(X)
    for i, (same_pred, same_top, clear) in enumerate(ref):
        if clear:
            assert (i in report.flagged) == (not (same_pred and same_top))
    if all(clear for _, _, clear in ref):
        assert report.flagged == [i for i, (p, t, _) in enumerate(ref) if not (p and t)]
        assert report.explanation_consistency == sum(t for _, t, _ in ref) / len(X)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 1000), st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**64 - 1)
)
def test_one_block_draw_equals_sequential_row_draws(n, repeats, dim, seed):
    block = np.random.default_rng(seed).integers(0, n, size=(repeats, dim))
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, n, size=dim) for _ in range(repeats)]
    np.testing.assert_array_equal(block, np.stack(rows))


def test_empty_flagged_set_gives_zero_correction():
    m = ModelParams(np.array([1.0, 2.0]), 0.0)
    out = feedback.local_correction(
        m, np.zeros((0, 2)), np.zeros(0), np.ones((3, 2)), np.ones(3, dtype=np.int64),
        lr=0.1, steps=5, seed=0, explanation_stability=0.7,
    )
    np.testing.assert_array_equal(out.delta, np.zeros(3))
    assert out.quality.accuracy_gain == 0.0
    assert out.quality.explanation_stability == 0.7


def test_correction_on_whole_set_matches_train_local():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12).astype(np.int64)
    m = ModelParams(rng.normal(size=3) * 0.1, 0.0)
    out = feedback.local_correction(m, X, y, X, y, lr=0.2, steps=4, seed=9)
    direct = train_local(m, NodePartition("correction", X, y), lr=0.2, epochs=4, batch=12, seed=9)
    np.testing.assert_allclose(out.delta, direct.grad, atol=1e-12)


def test_correction_gain_is_measured_on_holdout():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(20, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    hold_X = rng.normal(size=(40, 2))
    hold_y = (hold_X[:, 0] > 0).astype(np.int64)
    m = ModelParams.zeros(2)
    out = feedback.local_correction(m, X[:5], y[:5], hold_X, hold_y, lr=0.5, steps=10, seed=1)
    before, _ = evaluate(m, hold_X, hold_y)
    after, _ = evaluate(
        ModelParams.from_vector(m.as_vector() + out.delta), hold_X, hold_y
    )
    assert out.quality.accuracy_gain == pytest.approx(after - before)


def _quality(gain, stability):
    return feedback.FeedbackQuality(accuracy_gain=gain, explanation_stability=stability)


def test_weights_symmetric_scores_split_evenly():
    # score_local = 0.2 * 0.5 = 0.1; score_global = 0.1 * log1p(1000)/log1p(1000) = 0.1
    w = feedback.compute_weights(_quality(0.2, 0.5), 1000, 0.1)
    assert w.w_local == pytest.approx(0.5)
    assert w.w_global == pytest.approx(0.5)


def test_weights_zero_gain_floors_at_w_min():
    w = feedback.compute_weights(_quality(0.0, 1.0), 500, 0.8, w_min=0.05)
    assert w.w_local == 0.05
    assert w.w_global == 0.95


def test_weights_hand_value():
    # score_local = 0.6 * 0.5 = 0.3; score_global = 0.1 -> w_local = 0.75
    w = feedback.compute_weights(_quality(0.6, 0.5), 1000, 0.1, w_min=0.05)
    assert w.w_local == pytest.approx(0.75)
    assert w.w_global == pytest.approx(0.25)


def test_weights_capped_at_one_minus_w_min():
    w = feedback.compute_weights(_quality(10.0, 1.0), 2, 0.001, w_min=0.1)
    assert w.w_local == pytest.approx(0.9)


def test_weights_validate_inputs():
    with pytest.raises(ValueError):
        feedback.compute_weights(_quality(0.1, 1.0), 100, 0.5, w_min=0.6)
    with pytest.raises(ValueError):
        feedback.compute_weights(_quality(0.1, 1.0), 0, 0.5)
    with pytest.raises(ValueError):
        feedback.compute_weights(_quality(0.1, 1.0), 100, 1.5)


def test_integrate_equal_vectors_is_identity():
    w = feedback.IntegrationWeights(0.5, 0.5)
    x = np.array([1.0, -2.0])
    np.testing.assert_allclose(feedback.integrate(x, x, w), x, atol=1e-15)


def test_integrate_hand_value():
    w = feedback.IntegrationWeights(0.3, 0.7)
    out = feedback.integrate(np.array([10.0, 0.0]), np.array([0.0, 10.0]), w)
    np.testing.assert_allclose(out, [3.0, 7.0], atol=1e-12)


def test_integrate_zero_vectors():
    w = feedback.IntegrationWeights(0.4, 0.6)
    np.testing.assert_array_equal(feedback.integrate(np.zeros(3), np.zeros(3), w), np.zeros(3))


def test_integrate_dimension_mismatch():
    with pytest.raises(ValueError):
        feedback.integrate(np.zeros(2), np.zeros(3), feedback.IntegrationWeights(0.5, 0.5))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8),
    st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8),
    st.floats(0.05, 0.95),
)
def test_integrate_stays_in_coordinate_envelope(xs, ys, w_local):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    w = feedback.IntegrationWeights(w_local, 1.0 - w_local)
    out = feedback.integrate(x, y, w)
    assert np.all(out >= np.minimum(x, y) - 1e-9)
    assert np.all(out <= np.maximum(x, y) + 1e-9)


def test_integration_weights_must_be_convex():
    with pytest.raises(ValueError):
        feedback.IntegrationWeights(0.5, 0.6)
    with pytest.raises(ValueError):
        feedback.IntegrationWeights(-0.1, 1.1)
