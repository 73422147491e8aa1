"""Dual-model validation, explanations, corrections, and weighted fusion."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ref_permutations
from fleetfl import feedback
from fleetfl.models import ModelParams, evaluate, predict, predict_batch, train_local
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


def test_identical_models_agree_fully_with_no_flags():
    m = ModelParams(np.array([1.0, -1.0]), 0.2)
    X = np.random.default_rng(6).normal(size=(6, 2))
    report = feedback.validate_predictions(m, m, X, n_repeats=5, seed=0)
    assert report.agreement_rate == 1.0
    assert report.explanation_consistency == 1.0
    assert report.flagged == []


def test_negated_model_disagrees_everywhere():
    m1 = ModelParams(np.array([1.0, 2.0]), 0.0)
    m2 = ModelParams(np.array([-1.0, -2.0]), 0.0)
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 2)) + 1.0  # keep margins away from zero
    X = X[np.abs(X @ m1.weights) > 0.2]
    report = feedback.validate_predictions(m1, m2, X, n_repeats=5, seed=0)
    assert report.agreement_rate == 0.0
    assert sorted(report.flagged) == list(range(len(X)))


def test_validation_breaks_attribution_ties_toward_lowest_index():
    # a constant model attributes exactly 0 to every feature, so its top feature
    # is feature 0, the same as a model that only weighs feature 0
    flat = ModelParams(np.zeros(3), 5.0)
    first = ModelParams(np.array([0.1, 0.0, 0.0]), 5.0)
    X = np.random.default_rng(11).normal(size=(6, 3))
    report = feedback.validate_predictions(flat, first, X, n_repeats=5, seed=0)
    assert report.explanation_consistency == 1.0
    assert report.flagged == []


def test_hand_built_disagreements_flag_exactly():
    # dim-1 models: explanations always agree on the single feature, so a sample
    # is flagged exactly when the thresholded predictions differ (x != 0)
    m1 = ModelParams(np.array([1.0]), 0.0)
    m2 = ModelParams(np.array([-1.0]), 0.0)
    X = np.array([[1.0], [0.0], [-2.0], [3.0], [0.0], [5.0], [-1.0], [0.0], [2.0], [-4.0]])
    report = feedback.validate_predictions(m1, m2, X, n_repeats=5, seed=0)
    assert report.flagged == [0, 2, 3, 5, 6, 8, 9]
    assert report.agreement_rate == pytest.approx(0.3)
    assert report.explanation_consistency == 1.0


def test_validate_rejects_empty_or_mismatched_inputs():
    m = ModelParams.zeros(2)
    with pytest.raises(ValueError):
        feedback.validate_predictions(m, m, np.zeros((0, 2)), n_repeats=5, seed=0)
    with pytest.raises(ValueError):
        feedback.validate_predictions(m, ModelParams.zeros(3), np.zeros((2, 2)), n_repeats=5, seed=0)
    with pytest.raises(ValueError, match="2-D array"):
        feedback.validate_predictions(m, m, np.zeros(2), n_repeats=5, seed=0)
    with pytest.raises(ValueError, match="2-D array"):
        feedback.validate_predictions(m, m, np.zeros((2, 3)), n_repeats=5, seed=0)
    with pytest.raises(ValueError, match="finite"):
        feedback.validate_predictions(m, m, np.array([[0.0, 1.0], [np.nan, 0.0]]), n_repeats=5, seed=0)
    with pytest.raises(ValueError):
        feedback.validate_predictions(m, m, np.zeros((2, 2)), n_repeats=0, seed=0)


def _window(perm, n_repeats, dim):
    """The rows one sample swaps in from its permutation perm of the B
    background rows: feature j in repeat r < min(n_repeats, B) takes
    perm[(j + r) mod B]."""
    b = len(perm)
    return [[perm[(j + r) % b] for j in range(dim)] for r in range(min(n_repeats, b))]


def _reference_explain(params, sample, background, n_repeats, seed):
    """Permutation importance with one scalar prediction per perturbation;
    returns (attributions, stability)."""
    [perm] = ref_permutations(seed, 1, len(background))
    return _reference_attributions(params, sample, background,
                                   _window(perm, n_repeats, params.dim))


def _reference_attributions(params, sample, background, rows):
    """(attributions, stability) of one sample, swapping feature j in from
    background row rows[r][j] in repeat r."""
    base = predict(params, sample)
    diffs = np.empty((len(rows), params.dim))
    for r, picks in enumerate(rows):
        for j in range(params.dim):
            perturbed = sample.copy()
            perturbed[j] = background[picks[j], j]
            diffs[r, j] = abs(base - predict(params, perturbed))
    attributions = diffs.mean(axis=0)
    spread = diffs.std(axis=0).mean()
    stability = float(np.clip(1.0 - spread / (attributions.mean() + 1e-12), 0.0, 1.0))
    return attributions, stability


def _top_feature(attributions):
    """The tie rule: argmax of |attribution|, ties broken by lowest feature index."""
    return int(np.argmax(np.abs(attributions)))


def _reference_validate(model1, model2, X, n_repeats, seed):
    """Per-sample (same prediction, same top feature, top feature clear of the
    runner-up by more than 1e-9 in both models' explanations). One stream
    draws one permutation of X's rows per sample, in sample order."""
    out = []
    for x, perm in zip(X, ref_permutations(seed, len(X), len(X))):
        rows = _window(perm, n_repeats, X.shape[1])
        tops, clear = [], True
        for m in (model1, model2):
            attr, _ = _reference_attributions(m, x, X, rows)
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
    return m1, m2, X, int(repeats), seed


@pytest.mark.parametrize("case", range(40))
def test_batched_explain_matches_the_scalar_loop(case):
    m1, _, X, repeats, _ = _random_case(case)
    for i in range(len(X)):
        expl = feedback.explain(m1, X[i], X, repeats, seed=case + i)
        attr, stability = _reference_explain(m1, X[i], X, repeats, case + i)
        np.testing.assert_allclose(expl.attributions, attr, rtol=0, atol=1e-12)
        assert abs(expl.stability - stability) <= 1e-12


@pytest.mark.parametrize("case", range(40))
def test_batched_validation_matches_the_scalar_loop(case):
    m1, m2, X, repeats, seed = _random_case(case)
    report = feedback.validate_predictions(m1, m2, X, repeats, seed)
    ref = _reference_validate(m1, m2, X, repeats, seed)
    assert all(type(i) is int for i in report.flagged)
    assert report.flagged == sorted(report.flagged)
    assert report.agreement_rate == sum(p for p, _, _ in ref) / len(X)
    for i, (same_pred, same_top, clear) in enumerate(ref):
        if clear:
            assert (i in report.flagged) == (not (same_pred and same_top))
    if all(clear for _, _, clear in ref):
        assert report.flagged == [i for i, (p, t, _) in enumerate(ref) if not (p and t)]
        assert report.explanation_consistency == sum(t for _, t, _ in ref) / len(X)


def _rows_seen(call):
    """call()'s result and the rows argument of every ``feedback._perturb``
    call it makes: one per perturbation set, which every model scores."""
    seen, perturb = [], feedback._perturb

    def recorded(samples, background, rows):
        seen.append(rows)
        return perturb(samples, background, rows)

    with mock.patch.object(feedback, "_perturb", recorded):
        return call(), seen


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 30), st.integers(1, 8), st.integers(1, 16), st.integers(0, 2**64 - 1)
)
def test_one_block_draw_equals_sequential_row_draws(n, repeats, dim, seed):
    # validation draws every sample's rows at once; sample i's are permutation
    # i of the stream read on from sample i - 1's
    X = np.zeros((n, dim))
    V = np.zeros((1, dim + 1))
    _, [block] = _rows_seen(lambda: feedback.validate_fleet(V, V, X[None], repeats, [seed]))
    perms = ref_permutations(seed, n, n)
    np.testing.assert_array_equal(block[0], [_window(p, repeats, dim) for p in perms])


def _exact_attributions(w, bias, x, background):
    """|σ(z) − σ(z + w_j(b_j − x_j))| for every background row b and feature j,
    z = w·x + bias: (B, d). σ(t) = (1 + tanh(t/2))/2."""
    z = w @ x + bias
    sigma = lambda t: 0.5 * (1.0 + np.tanh(0.5 * t))  # noqa: E731
    return np.abs(sigma(z) - sigma(z + w * (background - x)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 4), st.integers(1, 12),
       st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_explain_at_full_background_is_the_exact_mean(dim, b, extra, repeats, seed, data_seed):
    rng = np.random.default_rng(data_seed)
    w, bias = rng.normal(scale=2.0, size=dim), float(rng.normal())
    X = rng.normal(size=(b, dim))
    params = ModelParams(w, bias)
    exact = _exact_attributions(w, bias, X[0], X)

    expl, [rows] = _rows_seen(lambda: feedback.explain(params, X[0], X, b + extra, seed))
    np.testing.assert_allclose(expl.attributions, exact.mean(axis=0), rtol=0, atol=1e-12)
    # stability is the spread of the prediction change over the B distinct rows
    stability = np.clip(1.0 - exact.std(axis=0).mean() / (exact.mean() + 1e-12), 0.0, 1.0)
    assert abs(expl.stability - stability) <= 1e-12
    assert rows.shape == (1, 1, b, dim)
    assert all(sorted(rows[0, 0, :, j]) == list(range(b)) for j in range(dim))

    # validation at any repeat count: each (sample, feature) draws
    # min(repeats, B) distinct rows, and sample 0's are explain's
    V = np.concatenate([w, [bias]])[None]
    _, [block] = _rows_seen(lambda: feedback.validate_fleet(V, V, X[None], repeats, [seed]))
    _, [explained] = _rows_seen(lambda: feedback.explain(params, X[0], X, repeats, seed))
    assert block.shape == (1, b, min(repeats, b), dim)
    assert all(len(set(block[0, i, :, j])) == min(repeats, b)
               for i in range(b) for j in range(dim))
    np.testing.assert_array_equal(block[0, :1], explained[0])


def test_explain_with_fewer_repeats_than_rows_averages_to_the_exact_mean():
    # each seed's window of R distinct rows is a uniform ordered R-subset, so
    # the attribution is unbiased; over S seeds its mean lies within 5
    # standard errors sqrt(var/R · (B − R)/(B − 1) / S) of the exact mean
    rng = np.random.default_rng(3)
    w, bias = np.array([1.5, -2.0, 0.7]), 0.2
    background = rng.normal(size=(10, 3))
    x = rng.normal(size=3)
    b, r, s = len(background), 3, 4000
    exact = _exact_attributions(w, bias, x, background)
    mean = np.mean([feedback.explain(ModelParams(w, bias), x, background, r, seed).attributions
                    for seed in range(s)], axis=0)
    se = np.sqrt(exact.var(axis=0) / r * (b - r) / (b - 1) / s)
    assert np.all(np.abs(mean - exact.mean(axis=0)) <= 5 * se)
    # and a single seed is not the exact mean: R < B draws a sample of the rows
    single = feedback.explain(ModelParams(w, bias), x, background, r, 0).attributions
    assert np.abs(single - exact.mean(axis=0)).max() > 10 * se.max()


def test_empty_flagged_set_gives_zero_correction():
    m = ModelParams(np.array([1.0, 2.0]), 0.0)
    out = feedback.local_correction(
        m, np.zeros((0, 2)), np.zeros(0), np.ones((3, 2)), np.ones(3, dtype=np.int64),
        lr=0.1, steps=5, seed=0,
    )
    np.testing.assert_array_equal(out.delta, np.zeros(3))
    assert out.accuracy_gain == 0.0


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
    assert out.accuracy_gain == pytest.approx(after - before)


def _node_abs_deltas(params, samples, base, background, rows):
    """One model's |prediction change| per swapped feature, one batched prediction."""
    n, n_repeats, dim = rows.shape
    perturbed = np.broadcast_to(samples[:, None, None, :], (n, n_repeats, dim, dim)).copy()
    j = np.arange(dim)
    perturbed[:, :, j, j] = background[rows, j]
    preds = predict_batch(params, perturbed.reshape(-1, dim))
    return np.abs(base[:, None, None] - preds.reshape(n, n_repeats, dim))


def _node_validate(m1, m2, X, n_repeats, seed):
    """One node's dual-model check: (agreement rate, flagged rows, consistency)."""
    n, dim = X.shape
    rows = np.array([_window(p, n_repeats, dim) for p in ref_permutations(seed, n, n)])
    preds, tops = [], []
    for m in (m1, m2):
        p = predict_batch(m, X)
        preds.append(p >= 0.5)
        tops.append(np.argmax(_node_abs_deltas(m, X, p, X, rows).mean(axis=1), axis=1))
    same_pred, same_top = preds[0] == preds[1], tops[0] == tops[1]
    return (int(same_pred.sum()) / n, np.flatnonzero(~(same_pred & same_top)).tolist(),
            int(same_top.sum()) / n)


def _node_explain(params, sample, background, n_repeats, seed):
    """One node's stability explanation: (attributions, stability)."""
    [perm] = ref_permutations(seed, 1, len(background))
    rows = np.array(_window(perm, n_repeats, params.dim))
    base = predict(params, sample)
    diffs = _node_abs_deltas(params, sample[None], np.array([base]), background, rows[None])[0]
    attributions = diffs.mean(axis=0)
    spread = diffs.std(axis=0).mean()
    return attributions, float(np.clip(1.0 - spread / (attributions.mean() + 1e-12), 0.0, 1.0))


def _node_correction(m, X, y, hold_X, hold_y, lr, steps, seed):
    """One node's correction: (delta, holdout accuracy gain)."""
    if len(y) == 0:
        return np.zeros(m.dim + 1), 0.0
    upd = train_local(m, NodePartition("correction", X, y), lr=lr, epochs=steps, batch=len(y),
                      seed=seed)
    before, _ = evaluate(m, hold_X, hold_y)
    after, _ = evaluate(ModelParams.from_vector(m.as_vector() + upd.grad), hold_X, hold_y)
    return upd.grad, after - before


@st.composite
def _fleets(draw):
    n_models, n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 6))
    counts = draw(st.lists(st.integers(0, n), min_size=n_models, max_size=n_models))
    model2 = draw(st.sampled_from(["same", "negated", "perturbed"]))
    return n_models, n, dim, draw(st.integers(1, 4)), counts, model2, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(_fleets())
@example((1, 5, 3, 2, [2], "perturbed", 0))  # one node
@example((3, 4, 2, 3, [0, 0, 0], "same", 1))  # no flagged row anywhere
@example((3, 4, 2, 3, [4, 4, 4], "negated", 2))  # every row flagged
@example((5, 6, 4, 2, [3, 0, 6, 3, 1], "perturbed", 3))  # unequal flagged counts
def test_fleet_passes_equal_per_node_calls_bit_for_bit(case):
    n_models, n, dim, repeats, counts, model2, seed = case
    rng = np.random.default_rng(seed)
    V1 = rng.normal(size=(n_models, dim + 1))
    V2 = {"same": V1, "negated": -V1,
          "perturbed": V1 + rng.normal(scale=0.5, size=V1.shape)}[model2]
    X = rng.normal(size=(n_models, n, dim))
    y = rng.integers(0, 2, size=(n_models, n))
    hold_X = rng.normal(size=(n_models, 7, dim))
    hold_y = rng.integers(0, 2, size=(n_models, 7))
    picks = [np.sort(rng.permutation(n)[:c]) for c in counts]
    seeds = [int(s) for s in rng.integers(0, 2**63, size=n_models)]
    m1 = [ModelParams.from_vector(v) for v in V1]
    m2 = [ModelParams.from_vector(v) for v in V2]

    reports = feedback.validate_fleet(V1, V2, X, repeats, seeds)
    expls = [feedback.explain(m, x[0], x, repeats, s) for m, x, s in zip(m1, X, seeds)]
    corrections = feedback.correct_fleet(
        V1, [x[i] for x, i in zip(X, picks)], [t[i] for t, i in zip(y, picks)], hold_X, hold_y,
        lr=0.3, steps=3, seeds=seeds,
    )
    for k in range(n_models):
        agreement, flagged, consistency = _node_validate(m1[k], m2[k], X[k], repeats, seeds[k])
        assert reports[k].flagged == flagged
        assert reports[k].agreement_rate == agreement
        assert reports[k].explanation_consistency == consistency
        attributions, stab = _node_explain(m1[k], X[k, 0], X[k], repeats, seeds[k])
        assert np.array_equal(expls[k].attributions, attributions)
        assert expls[k].stability == stab
        # validation explains sample 0 from permutation 0 of its stream, which is
        # explain's draw; only the stacked predictions' rounding may differ
        np.testing.assert_allclose(reports[k].explanation.attributions, attributions,
                                   rtol=0, atol=1e-12)
        assert abs(reports[k].explanation.stability - stab) <= 1e-12
        delta, gain = _node_correction(m1[k], X[k][picks[k]], y[k][picks[k]], hold_X[k],
                                       hold_y[k], 0.3, 3, seeds[k])
        assert np.array_equal(corrections[k].delta, delta)
        assert corrections[k].accuracy_gain == gain
        # the one-node forms are the fleet forms at N = 1
        one = feedback.validate_predictions(m1[k], m2[k], X[k], repeats, seeds[k])
        assert (one.flagged, one.agreement_rate) == (flagged, agreement)
        assert np.array_equal(one.explanation.attributions, reports[k].explanation.attributions)
        assert one.explanation.stability == reports[k].explanation.stability
        assert np.array_equal(feedback.local_correction(
            m1[k], X[k][picks[k]], y[k][picks[k]], hold_X[k], hold_y[k], lr=0.3, steps=3,
            seed=seeds[k],
        ).delta, delta)


def test_fleet_passes_reject_rows_of_unequal_shape():
    V = np.zeros((2, 3))
    ragged = [np.zeros((3, 2)), np.zeros((4, 2))]
    with pytest.raises(ValueError, match="one shape"):
        feedback.validate_fleet(V, V, ragged, 2, [0, 1])
    with pytest.raises(ValueError, match="one shape"):
        feedback.correct_fleet(V, [np.zeros((1, 2))] * 2, [np.zeros(1)] * 2, ragged,
                               [np.zeros(3), np.zeros(4)], lr=0.1, steps=1, seeds=[0, 1])
    with pytest.raises(ValueError, match="one seed per model"):
        feedback.validate_fleet(V, V, np.zeros((2, 3, 2)), 2, [0])


def test_weights_symmetric_scores_split_evenly():
    # score_local = 1.0 * 1.0 = 1; score_global = log1p(1000)/log1p(N_REF) = 1
    w = feedback.compute_weights(1.0, 1.0, 1000)
    assert w.w_local == pytest.approx(0.5)
    assert w.w_global == pytest.approx(0.5)


def test_weights_zero_gain_floors_at_w_min():
    w = feedback.compute_weights(0.0, 1.0, 500)
    assert w.w_local == 0.05
    assert w.w_global == 0.95


def test_weights_hand_value():
    # score_local = 0.6 * 0.5 = 0.3; score_global = ln 10/ln 1001 = 0.33329
    w = feedback.compute_weights(0.6, 0.5, 9)
    assert w.w_local == pytest.approx(0.3 / (0.3 + math.log(10) / math.log(1001)))
    assert w.w_local == pytest.approx(0.47372, abs=1e-5)
    assert w.w_global == pytest.approx(1.0 - w.w_local)


def test_weights_global_score_is_the_data_volume_alone():
    # at N_REF = 1000 a round of 1000 samples scores exactly 1, whatever the local score
    for gain, stability in [(0.25, 1.0), (0.5, 0.5), (1.0, 0.25)]:
        w = feedback.compute_weights(gain, stability, 1000)
        assert w.w_local == pytest.approx(0.25 / 1.25)


def test_weights_capped_at_one_minus_w_min():
    # score_local = 10 dwarfs score_global = ln 3/ln 1001
    w = feedback.compute_weights(10.0, 1.0, 2)
    assert w.w_local == pytest.approx(0.95)


def test_weights_validate_inputs():
    with pytest.raises(ValueError, match="total_samples must be positive"):
        feedback.compute_weights(0.1, 1.0, 0)


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


def _fusion_oracle(x, y, gain, stability, total_samples):
    """One node's fused delta and w_local, the rule written out in Python floats."""
    score_local = max(0.0, gain) * stability
    score_global = math.log1p(total_samples) / math.log1p(feedback.N_REF)
    w_local = min(max(score_local / (score_local + score_global), feedback.W_MIN),
                  1.0 - feedback.W_MIN)
    return [w_local * a + (1.0 - w_local) * b for a, b in zip(x, y)], w_local


@st.composite
def fusion_cases(draw):
    """(local deltas (N, d + 1), global delta, gains, stabilities, total samples)."""
    n_nodes, width = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    floats = st.floats(-1e3, 1e3)
    X = draw(st.lists(st.lists(floats, min_size=width, max_size=width),
                      min_size=n_nodes, max_size=n_nodes))
    y = draw(st.lists(floats, min_size=width, max_size=width))
    # accuracy gains lie in [-1, 1]; larger ones reach the 1 - W_MIN cap
    gains = draw(st.lists(st.floats(-1.0, 20.0), min_size=n_nodes, max_size=n_nodes))
    stabilities = draw(st.lists(st.floats(0.0, 1.0), min_size=n_nodes, max_size=n_nodes))
    return np.array(X), np.array(y), gains, stabilities, draw(st.integers(1, 10**6))


def _fusion_example(gains, stabilities, total_samples, width=3):
    rng = np.random.default_rng(len(gains))
    return (rng.normal(size=(len(gains), width)), rng.normal(size=width), gains, stabilities,
            total_samples)


# one node; a gain <= 0, floored at W_MIN; a gain of 10 over 2 samples, capped
# at 1 - W_MIN; four nodes whose weights differ, from the floor to the cap
FUSION_EXAMPLES = [
    _fusion_example([0.5], [0.5], 100),
    _fusion_example([-0.25], [1.0], 100),
    _fusion_example([10.0], [1.0], 2),
    _fusion_example([-0.1, 0.0, 0.3, 10.0], [1.0, 1.0, 0.7, 1.0], 9),
]


def _with_examples(test):
    for case in FUSION_EXAMPLES:
        test = example(case=case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(fusion_cases())
@_with_examples
def test_fleet_fusion_equals_the_written_out_rule_bit_for_bit(case):
    X, y, gains, stabilities, total_samples = case
    fused, w_local = feedback.fuse_fleet(X, y, gains, stabilities, total_samples)
    assert fused.shape == X.shape and w_local.shape == (len(X),)
    for k, x in enumerate(X):
        want, w_want = _fusion_oracle(x.tolist(), y.tolist(), gains[k], stabilities[k],
                                      total_samples)
        assert fused[k].tolist() == want
        assert w_local[k] == w_want
        # the one-node calls are the pass at N = 1
        w = feedback.compute_weights(gains[k], stabilities[k], total_samples)
        assert (w.w_local, w.w_global) == (w_want, 1.0 - w_want)
        assert feedback.integrate(x, y, w).tolist() == want


def test_the_fusion_examples_reach_both_clamps_and_differing_weights():
    weights = [feedback.fuse_fleet(*case)[1].tolist() for case in FUSION_EXAMPLES]
    w_min, w_max = feedback.W_MIN, 1.0 - feedback.W_MIN
    assert weights[1] == [w_min] and weights[2] == [w_max]
    assert weights[3][:2] == [w_min, w_min] and weights[3][3] == w_max
    assert w_min < weights[0][0] < w_max and w_min < weights[3][2] < w_max


def test_fleet_fusion_rejects_mismatched_inputs():
    with pytest.raises(ValueError, match="dimension mismatch"):
        feedback.fuse_fleet(np.zeros((2, 3)), np.zeros(2), [0.1, 0.1], [1.0, 1.0], 10)
    with pytest.raises(ValueError, match="one gain and one stability per node"):
        feedback.fuse_fleet(np.zeros((2, 3)), np.zeros(3), [0.1], [1.0, 1.0], 10)
    with pytest.raises(ValueError, match="total_samples must be positive"):
        feedback.fuse_fleet(np.zeros((2, 3)), np.zeros(3), [0.1, 0.1], [1.0, 1.0], 0)
