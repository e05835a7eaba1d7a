"""Exponential strength law linking peak stress to the Minkowski vector.

sigma = sigma_ref * exp(alpha . M) with sigma_ref fixed at 1, so the fit is
an intercept-free least squares problem in log space, solved in closed form
via the normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nnet.serialize import dump_json, load_json

SIGMA_REF = 1.0
_EXP_LIMIT = 700.0  # exp overflow threshold for fp64


@dataclass(frozen=True)
class StrengthLaw:
    alpha: np.ndarray  # coefficients for M0..M3
    sigma_ref: float
    norm_min: float  # min fitted log-strength over the training set
    norm_max: float  # max fitted log-strength over the training set
    sse: float
    n: int

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.shape != (4,) or not np.all(np.isfinite(a)):
            raise ValueError("alpha must be a finite 4-vector")
        object.__setattr__(self, "alpha", a)
        if self.norm_min > self.norm_max:
            raise ValueError("norm_min must not exceed norm_max")


def peak_stress(curve):
    """Strength scalar of a curve: its maximum stress."""
    return float(np.max(curve.stress))


def fit(minkowski, strengths):
    """Least-squares fit of alpha to log strengths (no intercept)."""
    m = np.asarray(minkowski, dtype=np.float64)
    sigma = np.asarray(strengths, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != 4:
        raise ValueError("minkowski must be an n x 4 matrix")
    if m.shape[0] < 4:
        raise ValueError("fit needs at least 4 samples")
    bad = np.flatnonzero(sigma <= 0)
    if bad.size:
        raise ValueError(f"non-positive strengths at rows {bad.tolist()}")
    y = np.log(sigma)
    gram = m.T @ m
    if np.linalg.matrix_rank(gram) < 4:
        raise ValueError("rank-deficient normal matrix; rescale or regularize "
                         "the Minkowski features")
    alpha = np.linalg.solve(gram, m.T @ y)
    fitted = m @ alpha
    residual = fitted - y
    return StrengthLaw(alpha=alpha, sigma_ref=SIGMA_REF,
                       norm_min=float(fitted.min()), norm_max=float(fitted.max()),
                       sse=float(residual @ residual), n=m.shape[0])


def predict(law, m):
    """sigma = sigma_ref * exp(alpha . m)."""
    m = np.asarray(m, dtype=np.float64)
    exponent = float(law.alpha @ m)
    if exponent > _EXP_LIMIT:
        raise OverflowError(f"strength exponent {exponent} exceeds fp64 range")
    return law.sigma_ref * np.exp(exponent)


def normalize_strength(law, sigma):
    """Map a strength to [0,1] via the training log-strength bounds (clamped)."""
    if sigma <= 0:
        raise ValueError("strength must be positive")
    span = law.norm_max - law.norm_min
    if span == 0.0:
        return 0.5
    value = (np.log(sigma) - law.norm_min) / span
    return float(np.clip(value, 0.0, 1.0))


def augment_features(x, curve, law):
    """Append the normalized observed log peak stress to a feature vector."""
    x = np.asarray(x, dtype=np.float64)
    peak = peak_stress(curve)
    if peak <= 0:
        extra = 0.0  # degenerate all-zero curve; flagged by callers
    else:
        extra = normalize_strength(law, peak)
    return np.concatenate([x, [extra]])


def save_law(law, path):
    dump_json({
        "alpha": law.alpha.tolist(),
        "sigma_ref": law.sigma_ref,
        "norm_min": law.norm_min,
        "norm_max": law.norm_max,
        "fit_diagnostics": {"sse": law.sse, "n": law.n},
    }, path)


def load_law(path):
    obj = load_json(path)
    diag = obj.get("fit_diagnostics", {})
    return StrengthLaw(alpha=np.asarray(obj["alpha"]), sigma_ref=obj["sigma_ref"],
                       norm_min=obj["norm_min"], norm_max=obj["norm_max"],
                       sse=diag.get("sse", 0.0), n=diag.get("n", 0))
