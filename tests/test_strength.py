"""Strength law: closed-form fit recovery, normalization, augmentation, and
the consistency training signal."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressinv import data, strength
from stressinv.data import StrainGrid, StressCurve, SyntheticConfig
from stressinv.nnet import Tensor
from stressinv.predictors.api import (DNN_SPLIT, DnnPredictorConfig,
                                      train_predictor)
from stressinv.predictors.neural import consistency_penalty

from conftest import analytic_input_grad, central_difference, max_rel_err


def make_curve(stress):
    stress = np.asarray(stress, dtype=float)
    return StressCurve(StrainGrid(np.linspace(0, 0.2, stress.size)), stress)


def planted_system(n=200, seed=0, alpha=(-2.5, 0.4, 0.3, 0.15)):
    rng = np.random.default_rng(seed)
    m = rng.uniform([0.1, 0.5, -1.0, -2.0], [0.5, 2.0, 1.0, 2.0], size=(n, 4))
    sigma = np.exp(m @ np.asarray(alpha))
    return m, sigma, np.asarray(alpha)


# ---------------------------------------------------------------------------
# peak_stress


def test_peak_monotone_curve_is_final_point():
    assert strength.peak_stress(make_curve([0.0, 1.0, 2.0])) == 2.0


def test_peak_interior():
    assert strength.peak_stress(make_curve([0.0, 2.0, 1.0])) == 2.0


def test_peak_matches_planted_law_on_noiseless_synthetic():
    config = SyntheticConfig(n_samples=30, noise_std=0.0, seed=5)
    alpha = np.asarray(config.planted_alpha)
    for s in data.generate_synthetic(config):
        assert abs(strength.peak_stress(s.curve)
                   - np.exp(alpha @ s.minkowski)) < 1e-9


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_planted_alpha():
    m, sigma, alpha = planted_system()
    law = strength.fit(m, sigma)
    assert np.max(np.abs(law.alpha - alpha)) < 1e-8


def test_fit_stationarity_residual():
    # gradient of the squared loss at the solution: 2 * M^T (M a - y) ~ 0
    m, sigma, _ = planted_system(seed=3)
    law = strength.fit(m, sigma)
    grad = 2.0 * m.T @ (m @ law.alpha - np.log(sigma))
    assert np.max(np.abs(grad)) < 1e-8


def test_fit_unit_strengths_gives_zero_alpha():
    m, _, _ = planted_system(n=50, seed=1)
    law = strength.fit(m, np.ones(50))
    assert np.max(np.abs(law.alpha)) < 1e-10
    assert law.sse < 1e-18


def test_fit_rejects_nonpositive_strengths():
    m, sigma, _ = planted_system(n=10)
    sigma[3] = 0.0
    with pytest.raises(ValueError, match=r"\[3\]"):
        strength.fit(m, sigma)


def test_fit_rejects_rank_deficient():
    m = np.zeros((10, 4))
    m[:, 0] = np.arange(10) + 1.0
    with pytest.raises(ValueError, match="rank"):
        strength.fit(m, np.ones(10))


def test_fit_needs_four_samples():
    with pytest.raises(ValueError):
        strength.fit(np.eye(4)[:3], np.ones(3))


def test_fit_scale_consistency():
    # scaling Minkowski column j by c divides alpha_j by c; fitted values fixed
    m, sigma, _ = planted_system(seed=8)
    law = strength.fit(m, sigma)
    scaled = m.copy()
    scaled[:, 2] *= 10.0
    law2 = strength.fit(scaled, sigma)
    assert abs(law2.alpha[2] - law.alpha[2] / 10.0) < 1e-9
    assert np.max(np.abs(scaled @ law2.alpha - m @ law.alpha)) < 1e-9


# ---------------------------------------------------------------------------
# predict / normalize


def test_predict_zero_alpha_is_sigma_ref():
    law = strength.StrengthLaw(np.zeros(4), 1.0, 0.0, 1.0, 0.0, 4)
    assert strength.predict(law, [5.0, -3.0, 2.0, 0.0]) == 1.0


def test_predict_hand_exponent():
    law = strength.StrengthLaw(np.array([1.0, 0, 0, 0]), 1.0, 0.0, 1.0, 0.0, 4)
    assert strength.predict(law, [np.log(2.0), 9.0, 9.0, 9.0]) == pytest.approx(2.0)


def test_predict_overflow_guard():
    law = strength.StrengthLaw(np.array([1.0, 0, 0, 0]), 1.0, 0.0, 1.0, 0.0, 4)
    with pytest.raises(OverflowError):
        strength.predict(law, [800.0, 0, 0, 0])


def test_predict_round_trip_through_fit():
    m, sigma, _ = planted_system(n=20, seed=2)
    law = strength.fit(m, sigma)
    for i in range(20):
        fitted_log = float(m[i] @ law.alpha)
        assert abs(np.log(strength.predict(law, m[i])) - fitted_log) < 1e-9


def test_normalize_endpoints_midpoint_clamp():
    law = strength.StrengthLaw(np.zeros(4), 1.0, norm_min=0.0, norm_max=2.0,
                               sse=0.0, n=4)
    assert strength.normalize_strength(law, np.exp(0.0)) == 0.0
    assert strength.normalize_strength(law, np.exp(2.0)) == 1.0
    assert strength.normalize_strength(law, np.exp(1.0)) == 0.5
    assert strength.normalize_strength(law, np.exp(5.0)) == 1.0  # clamped
    assert strength.normalize_strength(law, np.exp(-1.0)) == 0.0  # clamped


def test_normalize_degenerate_bounds_map_to_half():
    law = strength.StrengthLaw(np.zeros(4), 1.0, 1.0, 1.0, 0.0, 4)
    assert strength.normalize_strength(law, 123.0) == 0.5


def test_normalize_rejects_nonpositive():
    law = strength.StrengthLaw(np.zeros(4), 1.0, 0.0, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        strength.normalize_strength(law, 0.0)


def test_normalize_monotone():
    law = strength.StrengthLaw(np.zeros(4), 1.0, -1.0, 1.0, 0.0, 4)
    values = [strength.normalize_strength(law, s)
              for s in np.exp(np.linspace(-2, 2, 50))]
    assert np.all(np.diff(values) >= 0)


# ---------------------------------------------------------------------------
# augment_features


def test_augment_appends_single_bounded_value():
    m, sigma, _ = planted_system(n=20, seed=4)
    law = strength.fit(m, sigma)
    curve = make_curve(np.linspace(0, sigma[0], 10))
    x = np.arange(5.0)
    out = strength.augment_features(x, curve, law)
    assert out.shape == (6,)
    assert np.array_equal(out[:5], x)
    assert 0.0 <= out[5] <= 1.0


def test_augment_identical_curves_identical_value():
    m, sigma, _ = planted_system(n=20, seed=6)
    law = strength.fit(m, sigma)
    curve = make_curve(np.linspace(0, 2.0, 10))
    a = strength.augment_features(np.zeros(3), curve, law)
    b = strength.augment_features(np.ones(3) * 9, curve, law)
    assert a[3] == b[3]


def test_augment_zero_peak_appends_zero():
    law = strength.StrengthLaw(np.zeros(4), 1.0, 0.0, 1.0, 0.0, 4)
    out = strength.augment_features(np.ones(2), make_curve([0.0, 0.0]), law)
    assert out[2] == 0.0


def test_augment_matches_normalized_law_on_noiseless_synthetic():
    config = SyntheticConfig(n_samples=100, noise_std=0.0, seed=7)
    samples = data.generate_synthetic(config)
    m = data.minkowski_matrix(samples)
    sigma = np.array([strength.peak_stress(s.curve) for s in samples])
    law = strength.fit(m, sigma)
    for s in samples[:20]:
        appended = strength.augment_features(np.zeros(1), s.curve, law)[1]
        expected = strength.normalize_strength(
            law, np.exp(float(law.alpha @ s.minkowski)))
        assert abs(appended - expected) < 1e-6


# ---------------------------------------------------------------------------
# consistency penalty (the strength-law term of the DNN warm-up)

IDENTITY = data.ScalerParams(kind="zscore", a=np.zeros(4), b=np.ones(4),
                             degenerate=np.zeros(4, dtype=bool))


def penalty(m_hat, law, log_peaks):
    return consistency_penalty(Tensor(np.atleast_2d(m_hat)), IDENTITY, law.alpha,
                               np.asarray(log_peaks, dtype=float))


def test_consistency_zero_at_true_targets_noiseless():
    config = SyntheticConfig(n_samples=20, noise_std=0.0, seed=9)
    samples = data.generate_synthetic(config)
    law = strength.StrengthLaw(np.asarray(config.planted_alpha), 1.0,
                               -2.0, 2.0, 0.0, 20)
    for s in samples:
        loss = penalty(s.minkowski, law, [np.log(strength.peak_stress(s.curve))])
        assert loss.item() < 1e-12


def test_consistency_gradient_matches_finite_differences(rng):
    m, sigma, _ = planted_system(n=20, seed=11)
    law = strength.fit(m, sigma)
    log_peaks = np.log(sigma[:5])
    for _ in range(20):
        m_hat = rng.normal(size=(5, 4))
        grad = analytic_input_grad(
            lambda t: consistency_penalty(t, IDENTITY, law.alpha, log_peaks), m_hat)
        num = central_difference(lambda v: penalty(v, law, log_peaks).item(), m_hat)
        assert max_rel_err(grad, num) < 1e-6


def test_consistency_quadratic_scaling():
    law = strength.StrengthLaw(np.array([1.0, 0, 0, 0]), 1.0, 0.0, 1.0, 0.0, 4)
    base = penalty([0.3, 0, 0, 0], law, [0.0]).item()
    scaled = penalty([0.9, 0, 0, 0], law, [0.0]).item()
    assert scaled == pytest.approx(9.0 * base)


def test_consistency_rejects_nonpositive_peak():
    samples = data.generate_synthetic(SyntheticConfig(n_samples=60, seed=4))
    victim = data.split(60, DNN_SPLIT, 0).train[0]
    flat = StressCurve(samples[victim].curve.grid, np.zeros(100))
    samples[victim] = dataclasses.replace(samples[victim], curve=flat)
    config = DnnPredictorConfig(max_epochs=1, pretrain_epochs=1)
    with pytest.raises(ValueError, match="non-positive"):
        train_predictor("dnn", samples, None, "with_function", config=config,
                        seed=0, use_raw_curves=True)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_consistency_zero_iff_exact(seed):
    rng = np.random.default_rng(seed)
    alpha = rng.normal(size=4)
    law = strength.StrengthLaw(alpha, 1.0, -1.0, 1.0, 0.0, 4)
    log_peak = np.log(float(rng.uniform(0.5, 2.0)))
    # construct m_hat with alpha . m_hat == log_peak exactly
    m_hat = np.zeros((1, 4))
    j = int(np.argmax(np.abs(alpha)))
    m_hat[0, j] = log_peak / alpha[j]
    grad = analytic_input_grad(
        lambda t: consistency_penalty(t, IDENTITY, alpha, np.array([log_peak])), m_hat)
    assert penalty(m_hat, law, [log_peak]).item() < 1e-18
    assert np.max(np.abs(grad)) < 1e-7


# ---------------------------------------------------------------------------
# serialization


def test_law_save_load_round_trip(tmp_path):
    m, sigma, _ = planted_system(n=30, seed=13)
    law = strength.fit(m, sigma)
    path = str(tmp_path / "law.json")
    strength.save_law(law, path)
    loaded = strength.load_law(path)
    assert np.array_equal(loaded.alpha, law.alpha)
    assert loaded.norm_min == law.norm_min
    assert loaded.norm_max == law.norm_max
    assert loaded.sse == law.sse
    assert loaded.n == law.n
