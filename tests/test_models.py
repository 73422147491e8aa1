"""Logistic model: prediction, gradient correctness, SGD training, evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ref_permutations
from fleetfl import models, telemetry


def _loss_oracle(vec: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Independent mean log-loss arithmetic (plain log/exp, small margins only)."""
    z = X @ vec[:-1] + vec[-1]
    return float(np.mean(np.log(1.0 + np.exp(z)) - y * z))


def _fd_gradient(vec: np.ndarray, X: np.ndarray, y: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the loss oracle."""
    g = np.zeros_like(vec)
    for j in range(len(vec)):
        up, down = vec.copy(), vec.copy()
        up[j] += h
        down[j] -= h
        g[j] = (_loss_oracle(up, X, y) - _loss_oracle(down, X, y)) / (2.0 * h)
    return g


def _reference_gradient(params, X, y):
    """The per-model gradient as written before training was stacked."""
    p = models.predict_batch(params, X)
    r = p - y
    gw = X.T @ r / len(y)
    gb = float(np.mean(r))
    return np.concatenate([gw, [gb]])


def _reference_log_loss(params, X, y):
    z = np.asarray(X) @ params.weights + params.bias
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def _reference_train_local(params, partition, lr, epochs, batch, seed):
    """The per-node SGD loop as written before training was stacked."""
    X, y = partition.features, partition.labels
    n = len(y)
    orders = ref_permutations(seed, epochs, n)
    start = params.as_vector()
    cur = models.ModelParams.from_vector(start, version=params.version)
    trace = []
    for order in map(np.array, orders):
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            g = _reference_gradient(cur, X[idx], y[idx])
            cur = models.ModelParams.from_vector(cur.as_vector() - lr * g, version=cur.version)
        loss = _reference_log_loss(cur, X, y)
        if not np.isfinite(loss):
            raise models.TrainingDivergedError(
                f"non-finite loss on node {partition.node_id} after epoch {len(trace) + 1}"
            )
        trace.append(loss)
    delta = cur.as_vector() - start
    return models.GradientUpdate(grad=delta, n_samples=n)


@st.composite
def _fleets(draw):
    n_nodes = draw(st.integers(1, 12))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = [
        telemetry.NodePartition(
            f"node-{i}", rng.normal(scale=2.0, size=(n, d)), rng.integers(0, 2, size=n)
        )
        for i in range(n_nodes)
    ]
    starts = [
        models.ModelParams(rng.normal(size=d), float(rng.normal()), version=i)
        for i in range(n_nodes)
    ]
    seeds = [int(s) for s in rng.integers(0, 2**63, size=n_nodes)]
    return parts, starts, seeds


@settings(max_examples=150, deadline=None)
@given(
    fleet=_fleets(),
    lr=st.floats(1e-3, 2.0),
    epochs=st.integers(1, 4),
    batch_pad=st.integers(0, 43),
)
def test_train_fleet_matches_the_per_node_reference(fleet, lr, epochs, batch_pad):
    parts, starts, seeds = fleet
    batch = 1 + batch_pad % (parts[0].n_samples + 3)  # 1 to n + 3
    got = models.train_fleet(
        np.stack([s.as_vector() for s in starts]), np.stack([p.features for p in parts]),
        np.stack([p.labels for p in parts]), lr, epochs, batch, seeds,
        [p.node_id for p in parts],
    )
    assert got.shape == (len(parts), starts[0].dim + 1)
    for delta, start, part, seed in zip(got, starts, parts, seeds):
        want = _reference_train_local(start, part, lr, epochs, batch, seed)
        np.testing.assert_allclose(delta, want.grad, rtol=1e-12, atol=0)


def test_gradient_is_the_reference_gradient():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim, n = int(rng.integers(1, 10)), int(rng.integers(1, 40))
        params = models.ModelParams(rng.normal(size=dim), float(rng.normal()))
        X = rng.normal(size=(n, dim))
        y = rng.integers(0, 2, size=n)
        np.testing.assert_array_equal(
            models.gradient(params, X, y), _reference_gradient(params, X, y)
        )
        assert models.evaluate(params, X, y)[1] == _reference_log_loss(params, X, y)


@pytest.mark.parametrize(
    "n_rows, n_params, n_seeds, n_names",
    [(2, 1, 2, 2), (2, 2, 3, 2), (0, 0, 0, 0), (2, 2, 2, 1)],
    ids=["too-few-models", "too-many-seeds", "empty", "too-few-names"],
)
def test_train_fleet_rejects_mismatched_inputs(n_rows, n_params, n_seeds, n_names):
    with pytest.raises(ValueError):
        models.train_fleet(
            np.zeros((n_params, 3)), np.ones((n_rows, 5, 2)), np.zeros((n_rows, 5), dtype=np.int64),
            lr=0.1, epochs=1, batch=2, seeds=list(range(n_seeds)),
            names=[f"n{i}" for i in range(n_names)],
        )


def test_train_fleet_names_a_diverging_node_that_is_not_the_first():
    X = np.stack([np.ones((4, 2)), np.full((4, 2), 1e200)])
    with np.errstate(all="ignore"), pytest.raises(
        models.TrainingDivergedError, match="on node node-1 after epoch 1"
    ):
        models.train_fleet(np.zeros((2, 3)), X, np.ones((2, 4), dtype=np.int64), lr=0.5,
                           epochs=2, batch=2, seeds=[0, 1], names=["node-0", "node-1"])


def _reference_sigmoid(z):
    """The masked two-branch logistic, as written before the branch-free form."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_SIGMOID_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0, 745.2, -745.2,
                  -709.0, -720.5, -744.0, 5e-324, -5e-324, 1e-310, 36.8, 37.5, -36.8]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SIGMOID_EDGES),
                          st.floats(-745.5, -708.0),  # subnormal and smallest normal outputs
                          st.floats(allow_nan=True, allow_infinity=True)), max_size=40),
       st.booleans())
def test_sigmoid_is_bit_identical_to_the_two_branch_form(values, scalar):
    z = np.array(values[0] if scalar and values else values, dtype=np.float64)
    got, want = models._sigmoid(z), _reference_sigmoid(z)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)  # a NaN input gives NaN, its sign aside
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def test_sigmoid_outputs_below_the_smallest_normal_are_kept():
    out = models._sigmoid(np.array([-709.0, -740.0, -745.0, -746.0]))
    assert 0.0 < out[1] < out[0] < np.finfo(np.float64).tiny
    assert out[2] == 5e-324 and out[3] == 0.0


def test_predict_zero_model_is_half():
    params = models.ModelParams(np.zeros(3), 0.0)
    assert models.predict(params, np.array([1.0, -2.0, 3.0])) == 0.5


def test_predict_large_margin_saturates():
    params = models.ModelParams(np.array([10.0, 0.0]), 0.0)
    assert models.predict(params, np.array([10.0, 0.0])) > 0.999


def test_predict_hand_value():
    params = models.ModelParams(np.array([0.5]), -0.25)
    expected = 1.0 / (1.0 + math.exp(-0.25))
    assert models.predict(params, np.array([1.0])) == pytest.approx(expected, abs=1e-15)


def test_predict_dimension_mismatch():
    params = models.ModelParams(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        models.predict(params, np.zeros(3))


def test_gradient_matches_finite_differences_on_100_cases():
    rng = np.random.default_rng(17)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        params = models.ModelParams(rng.normal(scale=0.5, size=dim), float(rng.normal(scale=0.5)))
        X = rng.normal(size=(n, dim))
        y = rng.integers(0, 2, size=n).astype(np.int64)
        analytic = models.gradient(params, X, y)
        numeric = _fd_gradient(params.as_vector(), X, y)
        denom = max(float(np.linalg.norm(numeric)), 1e-8)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5


def test_train_local_vanishing_learning_rate():
    part = telemetry.NodePartition("n", np.ones((4, 2)), np.array([1, 0, 1, 0]))
    upd = models.train_local(models.ModelParams.zeros(2), part, lr=1e-12, epochs=1, batch=4, seed=0)
    assert np.linalg.norm(upd.grad) < 1e-9


def test_single_full_batch_step_equals_minus_lr_gradient():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(1, 3))
    y = np.array([1], dtype=np.int64)
    part = telemetry.NodePartition("n", X, y)
    start = models.ModelParams(rng.normal(scale=0.3, size=3), 0.1)
    lr = 0.25
    upd = models.train_local(start, part, lr=lr, epochs=1, batch=1, seed=0)
    expected = -lr * _fd_gradient(start.as_vector(), X, y)
    np.testing.assert_allclose(upd.grad, expected, atol=1e-9)
    assert upd.n_samples == 1


def test_step_that_overflows_a_parameter_raises_value_error():
    part = telemetry.NodePartition("n", np.full((4, 2), 1e10), np.array([1, 0, 0, 0]))
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match="model parameters must be finite"
    ):
        models.train_local(models.ModelParams.zeros(2), part, lr=1e300, epochs=1, batch=4, seed=0)


def test_training_descends_on_separable_points():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([1, 0], dtype=np.int64)
    part = telemetry.NodePartition("n", X, y)
    start = models.ModelParams.zeros(2)
    _, initial = models.evaluate(start, X, y)
    upd = models.train_local(start, part, lr=0.1, epochs=100, batch=2, seed=0)
    _, final = models.evaluate(models.ModelParams.from_vector(start.as_vector() + upd.grad), X, y)
    assert final < initial


def test_training_is_deterministic():
    fleet = telemetry.generate_fleet(5, 1, 30, 4, 0.3)
    part = fleet.partitions[0]
    a = models.train_local(models.ModelParams.zeros(4), part, lr=0.5, epochs=3, batch=8, seed=99)
    b = models.train_local(models.ModelParams.zeros(4), part, lr=0.5, epochs=3, batch=8, seed=99)
    assert a.grad.tobytes() == b.grad.tobytes()


def test_evaluate_perfect_model():
    X = np.array([[5.0], [-5.0]])
    y = np.array([1, 0], dtype=np.int64)
    params = models.ModelParams(np.array([3.0]), 0.0)
    acc, loss = models.evaluate(params, X, y)
    assert acc == 1.0
    assert loss >= 0.0


def test_evaluate_zero_model_balanced():
    X = np.ones((4, 2))
    y = np.array([1, 1, 0, 0], dtype=np.int64)
    acc, loss = models.evaluate(models.ModelParams.zeros(2), X, y)
    assert acc == 0.5
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_evaluate_three_sample_hand_loss():
    # margins z = [1.5, -0.5, 0.5] against labels [1, 0, 1]
    params = models.ModelParams(np.array([1.0, -1.0]), 0.5)
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    y = np.array([1, 0, 1], dtype=np.int64)
    expected = (
        (math.log(1.0 + math.exp(1.5)) - 1.5)
        + math.log(1.0 + math.exp(-0.5))
        + (math.log(1.0 + math.exp(0.5)) - 0.5)
    ) / 3.0
    acc, loss = models.evaluate(params, X, y)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert acc == 1.0


def test_evaluate_empty_rejected():
    with pytest.raises(ValueError):
        models.evaluate(models.ModelParams.zeros(2), np.zeros((0, 2)), np.zeros(0))


def test_false_positive_rate():
    params = models.ModelParams(np.array([1.0]), 0.0)
    X = np.array([[1.0], [1.0], [-1.0]])
    y = np.array([0, 0, 0], dtype=np.int64)
    assert models.false_positive_rate(params, X, y) == pytest.approx(2.0 / 3.0)
    assert models.false_positive_rate(params, X, np.ones(3, dtype=np.int64)) == 0.0


def _reference_scores(params, X, y):
    """(accuracy, log-loss, false-positive rate) of one model, scored on its own."""
    positive = models.predict_batch(params, X) >= 0.5
    neg = y == 0
    fpr = float(np.mean(positive[neg])) if np.any(neg) else 0.0
    return float(np.mean(positive.astype(np.int64) == y)), _reference_log_loss(params, X, y), fpr


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 40), st.integers(1, 9), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_score_fleet_rows_equal_one_model_scores(n_models, h, dim, no_negatives, seed):
    rng = np.random.default_rng(seed)
    V = rng.normal(scale=2.0, size=(n_models, dim + 1))
    X = rng.normal(size=(h, dim))
    y = np.ones(h, dtype=np.int64) if no_negatives else rng.integers(0, 2, size=h)
    acc, loss, fpr = models.score_fleet(V, X, y)
    for k, v in enumerate(V):
        params = models.ModelParams.from_vector(v)
        assert (acc[k], loss[k], fpr[k]) == _reference_scores(params, X, y)
        assert models.evaluate(params, X, y) == (acc[k], loss[k])
        assert models.false_positive_rate(params, X, y) == fpr[k]


def test_params_vector_round_trip():
    p = models.ModelParams(np.array([1.0, 2.0]), -3.0, version=4)
    q = models.ModelParams.from_vector(p.as_vector(), version=4)
    np.testing.assert_array_equal(q.weights, p.weights)
    assert q.bias == p.bias and q.version == 4


def test_non_finite_params_rejected():
    with pytest.raises(ValueError):
        models.ModelParams(np.array([np.nan]), 0.0)
