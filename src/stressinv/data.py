"""Dataset model, CSV ingestion, preprocessing, and synthetic data generation.

Curves live on a canonical strain grid (100 uniform points on [0, 0.2]) so
that every model sees a fixed-width stress vector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

GRID_POINTS = 100
STRAIN_MAX = 0.2

N_AUX_FEATURES = 35


class ParseError(ValueError):
    """CSV ingestion failure, annotated with the offending row."""


@dataclass(frozen=True)
class StrainGrid:
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("strain grid needs at least 2 points")
        if pts[0] < 0 or np.any(np.diff(pts) <= 0):
            raise ValueError("strain grid must be nonnegative and strictly increasing")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.size


def canonical_grid(n_points=GRID_POINTS, strain_max=STRAIN_MAX):
    return StrainGrid(np.linspace(0.0, strain_max, n_points))


@dataclass(frozen=True)
class StressCurve:
    grid: StrainGrid
    stress: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.stress, dtype=np.float64)
        if s.shape != (len(self.grid),):
            raise ValueError("stress length must match the grid")
        if not np.all(np.isfinite(s)):
            raise ValueError("stress values must be finite")
        object.__setattr__(self, "stress", s)


@dataclass(frozen=True)
class MaskedCurve:
    """Partial curve: stress is NaN wherever mask is False (unobserved)."""

    grid: StrainGrid
    stress: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        stress = np.asarray(self.stress, dtype=np.float64)
        if mask.shape != (len(self.grid),) or stress.shape != mask.shape:
            raise ValueError("mask/stress length must match the grid")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "stress", stress)

    @property
    def masked_fraction(self):
        return 1.0 - float(np.count_nonzero(self.mask)) / self.mask.size


@dataclass(frozen=True)
class Sample:
    id: str
    minkowski: np.ndarray  # M0 porosity, M1 surface area, M2 mean curvature, M3 Euler
    curve: StressCurve
    aux_features: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.minkowski, dtype=np.float64)
        if m.shape != (4,) or not np.all(np.isfinite(m)):
            raise ValueError("minkowski must be a finite 4-vector")
        object.__setattr__(self, "minkowski", m)
        if self.aux_features is not None:
            aux = np.asarray(self.aux_features, dtype=np.float64)
            if aux.shape != (N_AUX_FEATURES,):
                raise ValueError(f"aux_features must have length {N_AUX_FEATURES}")
            object.__setattr__(self, "aux_features", aux)


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


def minkowski_matrix(samples):
    return np.stack([s.minkowski for s in samples])


# ---------------------------------------------------------------------------
# CSV ingestion / emission

def _fmt(x):
    return repr(float(x))


def load_dataset(samples_path, curves_path, grid=None):
    """Load samples.csv + curves.csv into Sample objects on the canonical grid.

    curves.csv is either wide (id,s001..sNNN on the canonical grid) or long
    (id,strain,stress), resampled by linear interpolation. Extrapolation
    beyond a native strain range is an error.
    """
    grid = grid or canonical_grid()
    curves = _load_curves(curves_path, grid)
    samples = []
    seen = set()
    with open(samples_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{samples_path}: empty file")
        expected = ["id", "m0", "m1", "m2", "m3"]
        if header[:5] != expected:
            raise ParseError(f"{samples_path}: header must start with {expected}")
        has_aux = len(header) > 5
        if has_aux and header[5:] != [f"f{j:02d}" for j in range(1, N_AUX_FEATURES + 1)]:
            raise ParseError(f"{samples_path}: aux columns must be f01..f{N_AUX_FEATURES}")
        for rownum, row in enumerate(reader, start=2):
            sid = row[0]
            if sid in seen:
                raise ParseError(f"{samples_path}:{rownum}: duplicate id {sid!r}")
            seen.add(sid)
            try:
                m = np.array([float(v) for v in row[1:5]])
                aux = np.array([float(v) for v in row[5:]]) if has_aux else None
            except ValueError as exc:
                raise ParseError(f"{samples_path}:{rownum}: non-numeric cell ({exc})") from None
            if sid not in curves:
                raise ParseError(f"{samples_path}:{rownum}: no curve for id {sid!r}")
            samples.append(Sample(id=sid, minkowski=m, curve=curves[sid],
                                  aux_features=aux))
    extra = set(curves) - seen
    if extra:
        raise ParseError(f"{curves_path}: curves without samples: {sorted(extra)[:5]}")
    return samples


def _load_curves(path, grid):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if header[:1] != ["id"]:
            raise ParseError(f"{path}: first column must be 'id'")
        if header[1:3] == ["strain", "stress"]:
            return _load_curves_long(path, reader, grid)
        expected = [f"s{j:03d}" for j in range(1, len(grid) + 1)]
        if header[1:] != expected:
            raise ParseError(f"{path}: expected columns s001..s{len(grid):03d} "
                             "or strain,stress")
        curves = {}
        for rownum, row in enumerate(reader, start=2):
            sid = row[0]
            if sid in curves:
                raise ParseError(f"{path}:{rownum}: duplicate id {sid!r}")
            try:
                stress = np.array([float(v) for v in row[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{rownum}: non-numeric cell ({exc})") from None
            if stress.size != len(grid):
                raise ParseError(f"{path}:{rownum}: expected {len(grid)} stress values")
            curves[sid] = StressCurve(grid, stress)
        return curves


def _load_curves_long(path, reader, grid):
    raw = {}
    for rownum, row in enumerate(reader, start=2):
        if len(row) < 3:
            raise ParseError(f"{path}:{rownum}: expected 3 cells")
        try:
            strain, stress = float(row[1]), float(row[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{rownum}: non-numeric cell ({exc})") from None
        raw.setdefault(row[0], []).append((strain, stress))
    curves = {}
    for sid, points in raw.items():
        points.sort()
        strain = np.array([p[0] for p in points])
        stress = np.array([p[1] for p in points])
        if strain[0] > grid.points[0] or strain[-1] < grid.points[-1]:
            raise ParseError(f"{path}: curve {sid!r} covers [{strain[0]}, {strain[-1]}] "
                             f"but the canonical grid needs "
                             f"[{grid.points[0]}, {grid.points[-1]}] (no extrapolation)")
        curves[sid] = StressCurve(grid, np.interp(grid.points, strain, stress))
    return curves


def save_dataset(samples, samples_path, curves_path):
    """Emit samples.csv / curves.csv in the documented schema, byte-deterministic."""
    has_aux = samples[0].aux_features is not None
    with open(samples_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["id", "m0", "m1", "m2", "m3"]
        if has_aux:
            header += [f"f{j:02d}" for j in range(1, N_AUX_FEATURES + 1)]
        writer.writerow(header)
        for s in samples:
            row = [s.id] + [_fmt(v) for v in s.minkowski]
            if has_aux:
                row += [_fmt(v) for v in s.aux_features]
            writer.writerow(row)
    grid_len = len(samples[0].curve.grid)
    with open(curves_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"s{j:03d}" for j in range(1, grid_len + 1)])
        for s in samples:
            writer.writerow([s.id] + [_fmt(v) for v in s.curve.stress])


# ---------------------------------------------------------------------------
# Outlier filtering

def iqr_filter(samples):
    """Drop any sample whose Minkowski vector leaves the 1.5*IQR fences.

    Quartiles use linear interpolation between order statistics. Returns
    (kept, dropped_ids, fences) where fences is a (4, 2) array of
    [Q1 - 1.5*IQR, Q3 + 1.5*IQR] per feature.
    """
    if len(samples) < 4:
        raise ValueError("iqr_filter needs at least 4 samples")
    m = minkowski_matrix(samples)
    q1 = np.percentile(m, 25, axis=0)
    q3 = np.percentile(m, 75, axis=0)
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    outside = (m < lo) | (m > hi)
    drop = outside.any(axis=1)
    kept = [s for s, d in zip(samples, drop) if not d]
    dropped_ids = [s.id for s, d in zip(samples, drop) if d]
    return kept, dropped_ids, np.stack([lo, hi], axis=1)


# ---------------------------------------------------------------------------
# Masking and imputation

def mask_curve(curve, fraction_range, rng):
    """Remove one contiguous window covering a random fraction of the grid."""
    lo, hi = fraction_range
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("fraction_range must lie inside (0, 1)")
    p = len(curve.grid)
    f = rng.uniform(lo, hi)
    length = int(round(f * p))
    if length >= p:
        raise ValueError(f"mask window of {length} covers the whole {p}-point grid")
    start = int(rng.integers(0, p - length + 1))
    mask = np.ones(p, dtype=bool)
    mask[start : start + length] = False
    stress = curve.stress.copy()
    stress[~mask] = np.nan
    return MaskedCurve(curve.grid, stress, mask)


def position_means(masked_curves):
    """Per-position mean of observed stress values across training curves."""
    stress = np.stack([m.stress for m in masked_curves])
    observed = np.stack([m.mask for m in masked_curves])
    counts = observed.sum(axis=0)
    never = np.flatnonzero(counts == 0)
    if never.size:
        raise ValueError(f"positions never observed in training: {never.tolist()}")
    sums = np.where(observed, stress, 0.0).sum(axis=0)
    return sums / counts


def impute_mean(masked, train_means):
    """Fill unobserved positions with the training mean for that position."""
    train_means = np.asarray(train_means, dtype=np.float64)
    if train_means.shape != masked.mask.shape:
        raise ValueError("imputation stats length must match the grid")
    stress = np.where(masked.mask, masked.stress, train_means)
    return StressCurve(masked.grid, stress)


# ---------------------------------------------------------------------------
# Scaling

@dataclass(frozen=True)
class ScalerParams:
    kind: str  # "minmax" or "zscore"
    a: np.ndarray  # per-feature min or mean
    b: np.ndarray  # per-feature max or std
    degenerate: np.ndarray  # constant-feature flags


def scaler_fit(data, kind):
    data = np.asarray(data, dtype=np.float64)
    if kind == "minmax":
        a, b = data.min(axis=0), data.max(axis=0)
        degenerate = a == b
    elif kind == "zscore":
        a = data.mean(axis=0)
        b = data.std(axis=0)
        degenerate = b == 0.0
        b = np.where(degenerate, 1.0, b)
    else:
        raise ValueError(f"unknown scaler kind {kind!r}")
    return ScalerParams(kind, a, b, degenerate)


def scaler_apply(params, data):
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != params.a.shape[0]:
        raise ValueError("feature count does not match the fitted scaler")
    if params.kind == "minmax":
        span = np.where(params.degenerate, 1.0, params.b - params.a)
        out = (data - params.a) / span
        return np.where(params.degenerate, 0.5, out)
    return (data - params.a) / params.b


def scaler_invert(params, data):
    data = np.asarray(data, dtype=np.float64)
    if data.shape[-1] != params.a.shape[0]:
        raise ValueError("feature count does not match the fitted scaler")
    if params.kind == "minmax":
        out = data * (params.b - params.a) + params.a
        return np.where(params.degenerate, params.a, out)
    return data * params.b + params.a


# ---------------------------------------------------------------------------
# Splitting

def split(n, fractions, seed):
    """Seeded shuffle, then contiguous partition.

    Sizes: floor(n*train) and floor(n*val); the remainder goes to test
    (matches the documented 589 -> 530/29/30 example).
    """
    f_train, f_val, f_test = fractions
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    n_train = int(np.floor(n * f_train))
    n_val = int(np.floor(n * f_val))
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"empty partition for n={n}, fractions={fractions}")
    perm = np.random.default_rng(seed).permutation(n)
    return SplitIndices(train=perm[:n_train],
                        val=perm[n_train : n_train + n_val],
                        test=perm[n_train + n_val :],
                        seed=seed)


# ---------------------------------------------------------------------------
# Synthetic forward surrogate

@dataclass(frozen=True)
class SyntheticConfig:
    """Forward surrogate standing in for FEM-generated stress-strain data.

    Peak stress follows the exponential strength law exp(alpha . M).  The
    normalized shape is a saturating rise multiplied by exp of three smooth
    localized bumps (early, mid, late-negative) whose amplitudes are set by
    M1, M2, and M3.  Because each bump is order-one in log space, smooth,
    and anchored to a distinct strain region, the inverse problem stays
    well-conditioned even from partially observed curves.
    """

    n_samples: int = 600
    grid_points: int = GRID_POINTS
    planted_alpha: tuple = (-2.5, 0.4, 0.3, 0.15)
    minkowski_ranges: tuple = ((0.1, 0.5), (0.5, 2.0), (-1.0, 1.0), (-2.0, 2.0))
    curve_shape: str = "log_bump"
    rise_scale: float = 0.07
    early_span: float = 1.0
    mid_span: float = 1.0
    softening_span: float = 1.5
    noise_std: float = 0.005
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.rise_scale <= 0:
            raise ValueError("rise_scale must be positive")
        if min(self.early_span, self.mid_span, self.softening_span) < 0:
            raise ValueError("shape spans must be >= 0")
        if self.curve_shape != "log_bump":
            raise ValueError(f"unknown curve_shape {self.curve_shape!r}")


_AUX_RNG_SEED = 988271  # fixed; the 35 aux functions are dataset-independent


def _aux_coefficients():
    rng = np.random.default_rng(_AUX_RNG_SEED)
    linear = rng.normal(size=(N_AUX_FEATURES, 4))
    waves = rng.normal(size=(N_AUX_FEATURES, 4))
    phases = rng.uniform(0, 2 * np.pi, size=N_AUX_FEATURES)
    return linear, waves, phases


def _normalized(m, ranges):
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    return (m - lo) / (hi - lo)


def curve_shape_profile(grid, t1, t2, t3, config):
    """Normalized (max == 1) stress profile for shape parameters t in [0,1].

    The log-profile is a fixed saturating rise plus three Gaussian bumps
    anchored at 25 %, 55 %, and 90 % of the strain range; t1 and t2 scale
    the first two (centered so t = 0.5 is neutral) and t3 scales a
    late-strain softening dip.
    """
    x = grid.points / grid.points[-1]
    rise = 1.0 - np.exp(-x / config.rise_scale)
    early = np.exp(-0.5 * ((x - 0.25) / 0.18) ** 2)
    mid = np.exp(-0.5 * ((x - 0.55) / 0.18) ** 2)
    late = np.exp(-0.5 * ((x - 0.90) / 0.25) ** 2)
    g = (config.early_span * (t1 - 0.5) * early
         + config.mid_span * (t2 - 0.5) * mid
         - config.softening_span * t3 * late)
    f = rise * np.exp(g)
    return f / f.max()


def generate_synthetic(config):
    """Generate Samples with curves tied analytically to the strength law.

    With noise_std == 0, max(stress) == exp(planted_alpha . M) exactly.
    """
    grid = canonical_grid(config.grid_points)
    rng = np.random.default_rng(config.seed)
    alpha = np.asarray(config.planted_alpha, dtype=np.float64)
    lin, waves, phases = _aux_coefficients()
    samples = []
    width = max(4, len(str(config.n_samples)))
    for i in range(config.n_samples):
        m = np.array([rng.uniform(lo, hi) for lo, hi in config.minkowski_ranges])
        t = _normalized(m, config.minkowski_ranges)
        sigma_peak = np.exp(float(alpha @ m))
        profile = curve_shape_profile(grid, t[1], t[2], t[3], config)
        stress = sigma_peak * profile
        if config.noise_std > 0:
            stress = stress + rng.normal(0.0, config.noise_std, size=stress.shape)
            stress = np.maximum(stress, 0.0)
        aux = lin @ t + np.sin(waves @ t + phases)
        if config.noise_std > 0:
            aux = aux + rng.normal(0.0, config.noise_std, size=aux.shape)
        samples.append(Sample(id=f"s{i:0{width}d}", minkowski=m,
                              curve=StressCurve(grid, stress), aux_features=aux))
    return samples
