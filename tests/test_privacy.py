"""Adaptive privacy tuning: context mapping, clipping, Gaussian noise, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfl import encoding, privacy
from fleetfl.config import PrivacyConfig
from fleetfl.models import GradientUpdate

BOUNDS = PrivacyConfig(eps_min=0.5, eps_max=8.0)


def test_epsilon_boundary_no_signal():
    ctx = privacy.assess_context(0.0, 0.0, BOUNDS)
    assert ctx.epsilon == BOUNDS.eps_max


def test_epsilon_boundary_full_sensitivity():
    for threat in (0.0, 0.5, 1.0):
        assert privacy.assess_context(1.0, threat, BOUNDS).epsilon == BOUNDS.eps_min


def test_epsilon_hand_value():
    # eps = 0.5 + 7.5 * (1 - max(0.5, 0.2)) = 4.25
    ctx = privacy.assess_context(0.5, 0.2, BOUNDS)
    assert ctx.epsilon == pytest.approx(4.25, abs=1e-12)


def test_mask_strength_interpolates_with_threat():
    lo = privacy.assess_context(0.0, 0.0, BOUNDS).mask_strength
    hi = privacy.assess_context(0.0, 1.0, BOUNDS).mask_strength
    mid = privacy.assess_context(0.0, 0.5, BOUNDS).mask_strength
    assert lo == privacy.MASK_STRENGTH_MIN
    assert hi == privacy.MASK_STRENGTH_MAX
    assert mid == pytest.approx((lo + hi) / 2.0)


def test_out_of_range_inputs_rejected():
    with pytest.raises(ValueError):
        privacy.assess_context(-0.1, 0.0, BOUNDS)
    with pytest.raises(ValueError):
        privacy.assess_context(0.0, 1.1, BOUNDS)
    for sensitivities in ([0.5, 1.1], [0.5, math.nan], [-0.1]):
        with pytest.raises(ValueError, match="sensitivity must lie in"):
            privacy.assess_fleet(sensitivities, 0.5, BOUNDS)
    with pytest.raises(ValueError, match="threat must lie in"):
        privacy.assess_fleet([0.5, 0.5], -0.1, BOUNDS)


def _ref_epsilon(sensitivity: float, threat: float, bounds: PrivacyConfig) -> float:
    """One node's epsilon as the per-node assessment computed it, kept here as
    the reference."""
    if math.isinf(bounds.eps_max):
        return math.inf
    return bounds.eps_min + (bounds.eps_max - bounds.eps_min) * (1.0 - max(sensitivity, threat))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1,
             max_size=40),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    st.one_of(st.just(math.inf), st.floats(1e-3, 50.0)),
    st.one_of(st.just(math.inf), st.floats(0.0, 50.0)),
)
def test_assess_fleet_equals_the_per_node_epsilon_bit_for_bit(sensitivities, threat, eps_min,
                                                              span):
    bounds = PrivacyConfig(eps_min=eps_min, eps_max=eps_min + span, clip_norm=0.7)
    eps, strength = privacy.assess_fleet(sensitivities, threat, bounds)
    want = np.array([_ref_epsilon(s, threat, bounds) for s in sensitivities])
    assert eps.tobytes() == want.tobytes()
    assert strength == privacy.MASK_STRENGTH_MIN + (
        privacy.MASK_STRENGTH_MAX - privacy.MASK_STRENGTH_MIN
    ) * threat
    for k, s in enumerate(sensitivities):
        ctx = privacy.assess_context(s, threat, bounds)
        assert np.float64(ctx.epsilon).tobytes() == eps[k].tobytes()
        assert (ctx.delta, ctx.clip_norm, ctx.mask_strength) == (privacy.DELTA, 0.7, strength)


def test_epsilon_monotone_in_sensitivity_and_threat():
    grid = np.linspace(0.0, 1.0, 11)
    for threat in grid:
        eps = [privacy.assess_context(s, threat, BOUNDS).epsilon for s in grid]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
    for sens in grid:
        eps = [privacy.assess_context(sens, t, BOUNDS).epsilon for t in grid]
        assert all(a >= b for a, b in zip(eps, eps[1:]))


def test_clip_at_bound_is_identity():
    upd = GradientUpdate(grad=np.array([3.0, 4.0, 0.0]), n_samples=1)
    out = privacy.clip_update(upd, 5.0)
    assert out is upd


def test_clip_scales_direction_preserving():
    upd = GradientUpdate(grad=np.array([6.0, 8.0, 0.0]), n_samples=1)
    out = privacy.clip_update(upd, 5.0)
    np.testing.assert_allclose(out.grad, [3.0, 4.0, 0.0], atol=1e-12)


def test_clip_zero_vector():
    upd = GradientUpdate(grad=np.zeros(3), n_samples=1)
    np.testing.assert_array_equal(privacy.clip_update(upd, 5.0).grad, np.zeros(3))


def test_clip_rejects_non_finite():
    with pytest.raises(ValueError):
        privacy.clip_update(GradientUpdate(grad=np.array([np.inf]), n_samples=1), 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16),
    st.floats(1e-6, 1e3),
)
def test_clipped_norm_invariant(values, clip):
    g = np.array(values)
    out = privacy.clip_update(GradientUpdate(grad=g, n_samples=1), clip)
    assert np.linalg.norm(out.grad) <= clip + 1e-12
    norm = float(np.linalg.norm(g))
    if norm > clip:  # an ordinary vector scales by exactly clip / ||g||
        np.testing.assert_array_equal(out.grad, g * (clip / norm))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, -1e300])
def test_clip_of_a_huge_finite_update_keeps_its_direction(scale):
    # the sum of squares overflows float64, but the update itself is finite
    g = np.array([1.0, -2.0, 0.5, 3.0, 0.0]) * scale
    out = privacy.clip_update(GradientUpdate(grad=g, n_samples=1), 2.0)
    norm = math.hypot(*g)  # overflow-safe reference
    assert np.linalg.norm(out.grad) == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(out.grad, [x * (2.0 / norm) for x in g], rtol=1e-12, atol=0)


def test_sigma_formula_value():
    sigma = privacy.gaussian_sigma(1.0, 1.0, 1e-5)
    assert sigma == pytest.approx(math.sqrt(2.0 * math.log(1.25e5)), abs=1e-12)
    # and agrees with the conventional quoted value to within 2%
    assert abs(sigma - 4.8239) / 4.8239 < 0.02
    assert privacy.gaussian_sigma(1.0, math.inf, 1e-5) == 0.0


def test_sigma_of_an_epsilon_array_is_each_epsilons_sigma():
    eps = np.array([0.5, 1.0, 3.7, math.inf])
    sigmas = privacy.gaussian_sigma(0.4, eps, 1e-5)
    assert sigmas.tolist() == [privacy.gaussian_sigma(0.4, float(e), 1e-5) for e in eps]
    assert sigmas[-1] == 0.0
    with pytest.raises(ValueError, match="epsilon must be positive"):
        privacy.gaussian_sigma(0.4, np.array([1.0, 0.0]), 1e-5)


def test_sigma_rejects_bad_delta():
    with pytest.raises(ValueError):
        privacy.gaussian_sigma(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        privacy.gaussian_sigma(1.0, 1.0, 1.0)


def _ctx(eps, clip=1.0):
    return privacy.PrivacyContext(
        epsilon=eps, delta=1e-5, clip_norm=clip, mask_strength=0.1,
    )


def test_infinite_epsilon_noise_is_bit_identical_passthrough():
    upd = GradientUpdate(grad=np.array([0.1, -0.2]), n_samples=3)
    out = privacy.add_dp_noise(upd, _ctx(math.inf), rng_seed=1)
    assert out is upd


def test_noise_statistics_match_target_sigma():
    n = 100_000
    sigma = privacy.gaussian_sigma(1.0, 1.0, 1e-5)
    upd = GradientUpdate(grad=np.zeros(n), n_samples=1)
    out = privacy.add_dp_noise(upd, _ctx(1.0), rng_seed=7)
    draws = out.grad
    assert abs(float(np.mean(draws))) < 3.0 * sigma / math.sqrt(n)
    assert abs(float(np.std(draws)) - sigma) / sigma < 0.02


def test_noise_is_deterministic_per_seed():
    upd = GradientUpdate(grad=np.zeros(8), n_samples=1)
    a = privacy.add_dp_noise(upd, _ctx(1.0), rng_seed=5)
    b = privacy.add_dp_noise(upd, _ctx(1.0), rng_seed=5)
    c = privacy.add_dp_noise(upd, _ctx(1.0), rng_seed=6)
    np.testing.assert_array_equal(a.grad, b.grad)
    assert not np.array_equal(a.grad, c.grad)


def test_budget_simple_charge():
    ledger = privacy.BudgetLedger(budget_cap=10.0)
    privacy.charge_budget(ledger, "n", 4.25)
    assert ledger.spent_for("n") == pytest.approx(4.25)


def test_budget_cap_breach_leaves_ledger_unchanged():
    ledger = privacy.BudgetLedger(budget_cap=10.0, spent={"n": 9.0})
    with pytest.raises(privacy.BudgetExceededError):
        privacy.charge_budget(ledger, "n", 4.25)
    assert ledger.spent_for("n") == 9.0


def test_budget_sequential_composition():
    # charges compose linearly: the first charge that pushes the running sum
    # past the cap is the one rejected, and the sum is unchanged by it
    ledger = privacy.BudgetLedger(budget_cap=10.0)
    privacy.charge_budget(ledger, "n", 3.0)
    privacy.charge_budget(ledger, "n", 3.0)
    privacy.charge_budget(ledger, "n", 3.0)  # 9 <= 10: still within budget
    with pytest.raises(privacy.BudgetExceededError):
        privacy.charge_budget(ledger, "n", 3.0)  # 12 > 10
    assert ledger.spent_for("n") == pytest.approx(9.0)


def test_budget_rejects_non_positive_or_infinite_epsilon():
    ledger = privacy.BudgetLedger(budget_cap=10.0)
    with pytest.raises(ValueError):
        privacy.charge_budget(ledger, "n", 0.0)
    with pytest.raises(ValueError):
        privacy.charge_budget(ledger, "n", math.inf)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=20), st.floats(1.0, 20.0))
def test_budget_monotone_and_capped(charges, cap):
    ledger = privacy.BudgetLedger(budget_cap=cap)
    prev = 0.0
    for eps in charges:
        try:
            privacy.charge_budget(ledger, "n", eps)
        except privacy.BudgetExceededError:
            pass
        spent = ledger.spent_for("n")
        assert spent >= prev
        assert spent <= cap + 1e-9
        prev = spent


# -- the fleet forms against one call per node ------------------------------
#
# The per-node clip and noise functions as they were before the fleet forms,
# kept here unchanged as references (renamed with a leading _ref_).


def _ref_clip_vector(v: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale v down to L2 norm clip_norm; v itself when already within."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be positive")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite update")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm <= clip_norm:
        return v
    if math.isinf(norm):  # the sum of squares overflowed: take the direction first
        v = v / np.max(np.abs(v))
        norm = float(np.linalg.norm(v))
    return v * (clip_norm / norm)


def _ref_clip_update(update: GradientUpdate, clip_norm: float) -> GradientUpdate:
    """The update with its grad clipped by _ref_clip_vector; itself when already within."""
    g = _ref_clip_vector(update.grad, clip_norm)
    if g is update.grad:
        return update
    return GradientUpdate(grad=g, n_samples=update.n_samples)


def _ref_gaussian_noise(v: np.ndarray, sigma: float, rng_seed: int) -> np.ndarray:
    """v plus i.i.d. Gaussian noise of scale sigma: the one Gaussian mechanism,
    for a node's update and for the published aggregate."""
    return v + sigma * encoding.normals(encoding.streams([rng_seed], 2 * v.size).reshape(2, v.size))


def _ref_add_dp_noise(update: GradientUpdate, ctx: privacy.PrivacyContext,
                      rng_seed: int) -> GradientUpdate:
    """Add i.i.d. Gaussian noise calibrated to the context; eps=inf is identity."""
    if math.isinf(ctx.epsilon):
        return update
    sigma = privacy.gaussian_sigma(ctx.clip_norm, ctx.epsilon, ctx.delta)
    grad = _ref_gaussian_noise(update.grad, sigma, rng_seed)
    return GradientUpdate(grad=grad, n_samples=update.n_samples)


ROW_KINDS = ["any", "under", "at", "over", "zero", "near-1e200", "near-1e300"]


@st.composite
def fleet_rows(draw):
    """(stack, clip norms, contexts, seeds): one row per node, each of a kind
    that puts it under, exactly at or over its clip norm, or makes it zero or
    huge enough that its sum of squares overflows."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 16))
    rows, clips, ctxs, seeds = [], [], [], []
    for _ in range(n):
        kind = draw(st.sampled_from(ROW_KINDS))
        base = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
        scale = {"zero": 0.0, "near-1e200": 1e200, "near-1e300": 1e300}.get(
            kind, 10.0 ** draw(st.integers(-5, 5))
        )
        row = base * scale
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(row))
        clip = draw(st.floats(1e-6, 1e6))
        if norm > 0 and math.isfinite(norm):
            clip = {"under": 2.0 * norm, "at": norm, "over": norm / 3.0}.get(kind, clip)
        eps = draw(st.one_of(st.just(math.inf), st.floats(0.1, 20.0)))
        rows.append(row)
        clips.append(clip)
        ctxs.append(privacy.PrivacyContext(eps, 1e-5, clip, 0.1))
        seeds.append(draw(st.integers(0, 2**64 - 1)))
    return np.stack(rows), clips, ctxs, seeds


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(fleet_rows())
def test_fleet_privacy_equals_per_node_calls_bit_for_bit(fleet):
    U, clips, ctxs, seeds = fleet
    clipped = privacy.clip_fleet(U, clips)
    sigmas = [privacy.gaussian_sigma(c.clip_norm, c.epsilon, c.delta) for c in ctxs]
    noised = privacy.noise_fleet(clipped, sigmas, seeds)
    assert noised.shape == U.shape
    for i, (clip, ctx, seed) in enumerate(zip(clips, ctxs, seeds)):
        upd = GradientUpdate(grad=U[i].copy(), n_samples=1)
        ref_clipped = _ref_clip_update(upd, clip)
        ref = _ref_add_dp_noise(ref_clipped, ctx, seed)
        assert clipped[i].tobytes() == ref_clipped.grad.tobytes()
        assert noised[i].tobytes() == ref.grad.tobytes()
        # the one-row forms take the same path, and keep returning their input
        # when a row is within its bound or its epsilon is inf
        own_clipped = privacy.clip_update(upd, clip)
        own = privacy.add_dp_noise(own_clipped, ctx, seed)
        assert (own_clipped is upd) == (ref_clipped is upd)
        assert (own is own_clipped) == (ref is ref_clipped)
        assert own.grad.tobytes() == ref.grad.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 64), st.integers(1, 40), st.integers(-5, 5),
    st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e200, 1e300]),
)
def test_row_norms_equal_numpy_norm_of_each_row(n, d, exponent, seed, huge):
    rng = np.random.default_rng(seed)
    # rows of unlike scales; some huge enough that their sums of squares overflow
    U = rng.normal(size=(n, d)) * 10.0 ** rng.integers(exponent - 5, exponent + 6, size=(n, 1))
    big = rng.random(n) < 0.2
    U[big] = rng.normal(size=(int(big.sum()), d)) * huge
    norms = privacy.row_norms(U)
    with np.errstate(over="ignore"):
        expected = [float(np.linalg.norm(row)) for row in U]
    assert norms.tolist() == expected


def test_fleet_forms_return_their_input_when_nothing_changes():
    U = np.array([[3.0, 4.0], [0.0, 0.0], [-0.0, 1.0]])
    assert privacy.clip_fleet(U, [5.0, 1.0, 1.0]) is U
    assert privacy.noise_fleet(U, [0.0, 0.0, 0.0], [1, 2, 3]) is U
    noised = privacy.noise_fleet(U, [0.0, 0.5, 0.0], [1, 2, 3])
    assert noised[0].tobytes() == U[0].tobytes() and noised[2].tobytes() == U[2].tobytes()
    assert noised[1].tobytes() != U[1].tobytes()


def test_clip_fleet_rejects_what_clip_vector_rejects():
    with pytest.raises(ValueError, match="clip_norm must be positive"):
        privacy.clip_fleet(np.ones((2, 3)), [1.0, 0.0])
    with pytest.raises(ValueError, match="non-finite update"):
        privacy.clip_fleet(np.array([[1.0, 2.0], [np.nan, 0.0]]), [1.0, 1.0])
