"""Adaptive privacy tuning: context mapping, clipping, Gaussian noise, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetfl import privacy
from fleetfl.config import PrivacyConfig
from fleetfl.models import GradientUpdate

BOUNDS = PrivacyConfig(eps_min=0.5, eps_max=8.0)


def test_epsilon_boundary_no_signal():
    ctx = privacy.assess_context(0.0, 0.0, [], BOUNDS)
    assert ctx.epsilon == BOUNDS.eps_max


def test_epsilon_boundary_full_sensitivity():
    for threat in (0.0, 0.5, 1.0):
        assert privacy.assess_context(1.0, threat, [], BOUNDS).epsilon == BOUNDS.eps_min


def test_epsilon_hand_value():
    # eps = 0.5 + 7.5 * (1 - max(0.5, 0.2)) = 4.25
    ctx = privacy.assess_context(0.5, 0.2, [], BOUNDS)
    assert ctx.epsilon == pytest.approx(4.25, abs=1e-12)


def test_mask_strength_interpolates_with_threat():
    lo = privacy.assess_context(0.0, 0.0, [], BOUNDS).mask_strength
    hi = privacy.assess_context(0.0, 1.0, [], BOUNDS).mask_strength
    mid = privacy.assess_context(0.0, 0.5, [], BOUNDS).mask_strength
    assert lo == BOUNDS.mask_strength_min
    assert hi == BOUNDS.mask_strength_max
    assert mid == pytest.approx((lo + hi) / 2.0)


def test_stalled_convergence_relaxes_clip():
    stalled = [1.0, 1.0, 1.0, 1.0, 1.0, 0.999]
    improving = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
    assert privacy.assess_context(0.0, 0.0, stalled, BOUNDS).clip_norm == pytest.approx(
        1.5 * BOUNDS.clip_norm
    )
    assert privacy.assess_context(0.0, 0.0, improving, BOUNDS).clip_norm == BOUNDS.clip_norm
    # fewer than 6 epochs: no stall signal yet
    assert privacy.assess_context(0.0, 0.0, [1.0, 1.0], BOUNDS).clip_norm == BOUNDS.clip_norm


def test_out_of_range_inputs_rejected():
    with pytest.raises(ValueError):
        privacy.assess_context(-0.1, 0.0, [], BOUNDS)
    with pytest.raises(ValueError):
        privacy.assess_context(0.0, 1.1, [], BOUNDS)


def test_epsilon_monotone_in_sensitivity_and_threat():
    grid = np.linspace(0.0, 1.0, 11)
    for threat in grid:
        eps = [privacy.assess_context(s, threat, [], BOUNDS).epsilon for s in grid]
        assert all(a >= b for a, b in zip(eps, eps[1:]))
    for sens in grid:
        eps = [privacy.assess_context(sens, t, [], BOUNDS).epsilon for t in grid]
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


def test_sigma_rejects_bad_delta():
    with pytest.raises(ValueError):
        privacy.gaussian_sigma(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        privacy.gaussian_sigma(1.0, 1.0, 1.0)


def _ctx(eps, clip=1.0):
    return privacy.PrivacyContext(
        epsilon=eps, delta=1e-5, clip_norm=clip, mask_strength=0.1, threat_level=0.0,
        sensitivity=0.0,
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
