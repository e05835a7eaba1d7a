"""Dataset ingestion, filtering, masking, scaling, splitting, and the
synthetic surrogate: fixtures with hand oracles plus property tests."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stressinv import data
from stressinv.data import (ParseError, StrainGrid, StressCurve, MaskedCurve,
                            Sample, SyntheticConfig, canonical_grid)


def make_sample(sid, m, stress=None, grid=None):
    grid = grid or canonical_grid()
    if stress is None:
        stress = np.linspace(0.0, 1.0, len(grid))
    return Sample(id=sid, minkowski=np.asarray(m, dtype=float),
                  curve=StressCurve(grid, stress))


# ---------------------------------------------------------------------------
# Domain types


def test_grid_validation():
    with pytest.raises(ValueError):
        StrainGrid([0.2, 0.1])
    with pytest.raises(ValueError):
        StrainGrid([-0.1, 0.1])
    with pytest.raises(ValueError):
        StrainGrid([0.5])


def test_curve_validation():
    grid = StrainGrid([0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        StressCurve(grid, [1.0, 2.0])
    with pytest.raises(ValueError):
        StressCurve(grid, [1.0, np.nan, 2.0])


def test_masked_fraction():
    grid = StrainGrid([0.0, 0.1, 0.2, 0.3])
    masked = MaskedCurve(grid, np.array([1.0, np.nan, np.nan, 2.0]),
                         np.array([True, False, False, True]))
    assert masked.masked_fraction == 0.5


def test_sample_validation():
    grid = StrainGrid([0.0, 0.1])
    curve = StressCurve(grid, [0.0, 1.0])
    with pytest.raises(ValueError):
        Sample(id="a", minkowski=[1.0, 2.0], curve=curve)
    with pytest.raises(ValueError):
        Sample(id="a", minkowski=[1.0, 2.0, 3.0, 4.0], curve=curve,
               aux_features=np.zeros(3))


# ---------------------------------------------------------------------------
# CSV ingestion / emission


def write_wide(tmp_path, rows, grid_len=100, aux=False):
    samples_path = tmp_path / "samples.csv"
    curves_path = tmp_path / "curves.csv"
    header = ["id", "m0", "m1", "m2", "m3"]
    if aux:
        header += [f"f{j:02d}" for j in range(1, 36)]
    with open(samples_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow(r["sample_row"])
    with open(curves_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"s{j:03d}" for j in range(1, grid_len + 1)])
        for r in rows:
            w.writerow([r["sample_row"][0]] + list(r["stress"]))
    return str(samples_path), str(curves_path)


def test_load_two_sample_fixture(tmp_path):
    stress = np.linspace(0, 1, 100)
    rows = [{"sample_row": ["a", 0.1, 0.2, 0.3, 0.4], "stress": stress},
            {"sample_row": ["b", 0.5, 0.6, 0.7, 0.8], "stress": stress * 2}]
    sp, cp = write_wide(tmp_path, rows)
    samples = data.load_dataset(sp, cp)
    assert [s.id for s in samples] == ["a", "b"]
    assert np.allclose(samples[1].curve.stress, stress * 2)
    assert np.allclose(samples[0].minkowski, [0.1, 0.2, 0.3, 0.4])


def test_load_duplicate_id_errors(tmp_path):
    stress = np.linspace(0, 1, 100)
    rows = [{"sample_row": ["a", 0.1, 0.2, 0.3, 0.4], "stress": stress},
            {"sample_row": ["a", 0.5, 0.6, 0.7, 0.8], "stress": stress}]
    sp, cp = write_wide(tmp_path, rows)
    with pytest.raises(ParseError, match="duplicate id"):
        data.load_dataset(sp, cp)


def test_load_non_numeric_cell_names_row(tmp_path):
    stress = np.linspace(0, 1, 100)
    rows = [{"sample_row": ["a", 0.1, "oops", 0.3, 0.4], "stress": stress}]
    sp, cp = write_wide(tmp_path, rows)
    with pytest.raises(ParseError, match=":2:"):
        data.load_dataset(sp, cp)


def test_load_missing_curve_errors(tmp_path):
    stress = np.linspace(0, 1, 100)
    rows = [{"sample_row": ["a", 0.1, 0.2, 0.3, 0.4], "stress": stress}]
    sp, cp = write_wide(tmp_path, rows)
    with open(sp, "a", newline="") as fh:
        csv.writer(fh).writerow(["b", 0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ParseError, match="no curve for id 'b'"):
        data.load_dataset(sp, cp)


def test_load_long_format_matches_hand_interpolation(tmp_path):
    grid = canonical_grid()
    samples_path = tmp_path / "samples.csv"
    curves_path = tmp_path / "curves.csv"
    with open(samples_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "m0", "m1", "m2", "m3"])
        w.writerow(["a", 0.1, 0.2, 0.3, 0.4])
    # native coarse grid: 3 points over [0, 0.2], stress = 10 * strain
    with open(curves_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "strain", "stress"])
        for eps in (0.0, 0.1, 0.2):
            w.writerow(["a", eps, 10.0 * eps])
    samples = data.load_dataset(str(samples_path), str(curves_path))
    stress = samples[0].curve.stress
    for probe in (10, 47, 88):  # hand linear interpolation of a linear curve
        assert abs(stress[probe] - 10.0 * grid.points[probe]) < 1e-12


def test_load_long_format_rejects_extrapolation(tmp_path):
    samples_path = tmp_path / "samples.csv"
    curves_path = tmp_path / "curves.csv"
    with open(samples_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "m0", "m1", "m2", "m3"])
        w.writerow(["a", 0.1, 0.2, 0.3, 0.4])
    with open(curves_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "strain", "stress"])
        w.writerow(["a", 0.0, 0.0])
        w.writerow(["a", 0.1, 1.0])  # stops short of 0.2
    with pytest.raises(ParseError, match="no extrapolation"):
        data.load_dataset(str(samples_path), str(curves_path))


def test_save_load_round_trip(tmp_path):
    config = SyntheticConfig(n_samples=8, seed=3)
    samples = data.generate_synthetic(config)
    sp, cp = str(tmp_path / "s.csv"), str(tmp_path / "c.csv")
    data.save_dataset(samples, sp, cp)
    loaded = data.load_dataset(sp, cp)
    for a, b in zip(samples, loaded):
        assert a.id == b.id
        assert np.array_equal(a.minkowski, b.minkowski)
        assert np.array_equal(a.curve.stress, b.curve.stress)
        assert np.array_equal(a.aux_features, b.aux_features)


def test_save_dataset_deterministic_bytes(tmp_path):
    samples = data.generate_synthetic(SyntheticConfig(n_samples=5, seed=1))
    paths = [(str(tmp_path / f"s{i}.csv"), str(tmp_path / f"c{i}.csv"))
             for i in (0, 1)]
    for sp, cp in paths:
        data.save_dataset(samples, sp, cp)
    for idx in (0, 1):
        with open(paths[0][idx], "rb") as f0, open(paths[1][idx], "rb") as f1:
            assert f0.read() == f1.read()


# ---------------------------------------------------------------------------
# IQR outlier filtering


def test_iqr_drops_planted_outlier_with_hand_fences():
    # porosity column: [.20 .21 .22 .23 .24 .25 .26 .27 .90]; other features flat
    porosity = [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.90]
    samples = [make_sample(f"s{i}", [p, 1.0, 0.0, 0.0])
               for i, p in enumerate(porosity)]
    kept, dropped, fences = data.iqr_filter(samples)
    assert dropped == ["s8"]
    assert len(kept) == 8
    # hand quartiles (linear interpolation): Q1 = 0.22, Q3 = 0.26, IQR 0.04
    assert fences[0, 0] == pytest.approx(0.22 - 1.5 * 0.04)
    assert fences[0, 1] == pytest.approx(0.26 + 1.5 * 0.04)


def test_iqr_identical_features_drop_nothing():
    samples = [make_sample(f"s{i}", [0.3, 1.0, 0.0, -1.0]) for i in range(6)]
    kept, dropped, _ = data.iqr_filter(samples)
    assert dropped == [] and len(kept) == 6


def test_iqr_requires_four_samples():
    samples = [make_sample(f"s{i}", [0.1 * i, 1, 0, 0]) for i in range(3)]
    with pytest.raises(ValueError):
        data.iqr_filter(samples)


def test_iqr_kept_plus_dropped_partitions_input():
    rng = np.random.default_rng(7)
    samples = [make_sample(f"s{i}", rng.normal(size=4)) for i in range(40)]
    kept, dropped, fences = data.iqr_filter(samples)
    assert len(kept) + len(dropped) == 40
    m = data.minkowski_matrix(kept)
    assert np.all(m >= fences[:, 0]) and np.all(m <= fences[:, 1])


# ---------------------------------------------------------------------------
# Masking / imputation


def test_mask_forced_length_and_preservation():
    rng = np.random.default_rng(0)
    curve = StressCurve(canonical_grid(), np.linspace(0, 1, 100))
    masked = data.mask_curve(curve, (0.25, 0.25), rng)
    assert int((~masked.mask).sum()) == 25
    # the masked window is one contiguous block
    gaps = np.flatnonzero(~masked.mask)
    assert np.array_equal(gaps, np.arange(gaps[0], gaps[0] + 25))
    assert np.array_equal(masked.stress[masked.mask], curve.stress[masked.mask])
    assert np.all(np.isnan(masked.stress[~masked.mask]))


def test_mask_fraction_range_validation():
    curve = StressCurve(canonical_grid(), np.zeros(100))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        data.mask_curve(curve, (0.0, 0.5), rng)
    with pytest.raises(ValueError):
        data.mask_curve(curve, (0.5, 1.0), rng)


def test_mask_montecarlo_uniformity():
    rng = np.random.default_rng(99)
    curve = StressCurve(canonical_grid(), np.linspace(0, 1, 100))
    fractions, starts = [], []
    for _ in range(10_000):
        masked = data.mask_curve(curve, (0.2, 0.5), rng)
        fractions.append(masked.masked_fraction)
        starts.append(int(np.argmin(masked.mask)))
    lengths = np.rint(np.array(fractions) * 100).astype(int)
    # window length = round(100 * U(0.2, 0.5)): interior lattice values carry
    # probability 1/30, the endpoints 20 and 50 half of that
    counts = np.bincount(lengths, minlength=51)
    assert np.all(counts[:20] == 0) and np.all(counts[21:50] > 0)
    assert np.all(np.abs(counts[21:50] / 10_000 - 1 / 30) < 0.015)
    assert abs(counts[20] / 10_000 - 1 / 60) < 0.01
    assert abs(counts[50] / 10_000 - 1 / 60) < 0.01
    # with the minimum window (20 points) starts can reach offset 80
    assert min(starts) == 0 and max(starts) == 80


def test_position_means_and_impute_fixture():
    grid = StrainGrid([0.0, 0.1, 0.2])
    masked = [
        MaskedCurve(grid, np.array([1.0, np.nan, 5.0]), [True, False, True]),
        MaskedCurve(grid, np.array([3.0, 4.0, np.nan]), [True, True, False]),
    ]
    means = data.position_means(masked)
    assert np.array_equal(means, [2.0, 4.0, 5.0])
    filled = data.impute_mean(masked, means)
    assert np.array_equal(filled, [[1.0, 4.0, 5.0], [3.0, 4.0, 5.0]])


def test_impute_fully_observed_unchanged():
    grid = StrainGrid([0.0, 0.1])
    masked = MaskedCurve(grid, np.array([1.0, 2.0]), [True, True])
    filled = data.impute_mean([masked], np.array([9.0, 9.0]))
    assert np.array_equal(filled, [[1.0, 2.0]])


def test_position_means_never_observed_errors():
    grid = StrainGrid([0.0, 0.1])
    masked = [MaskedCurve(grid, np.array([1.0, np.nan]), [True, False])]
    with pytest.raises(ValueError, match=r"\[1\]"):
        data.position_means(masked)


# ---------------------------------------------------------------------------
# Scaling


def test_minmax_maps_train_bounds_to_unit():
    params = data.scaler_fit(np.array([[0.0], [10.0]]), "minmax")
    out = data.scaler_apply(params, np.array([[0.0], [10.0], [5.0]]))
    assert np.allclose(out.ravel(), [0.0, 1.0, 0.5])


def test_minmax_degenerate_feature_maps_to_half():
    params = data.scaler_fit(np.array([[3.0], [3.0]]), "minmax")
    out = data.scaler_apply(params, np.array([[3.0], [7.0]]))
    assert np.allclose(out.ravel(), [0.5, 0.5])
    back = data.scaler_invert(params, out)
    assert np.allclose(back.ravel(), [3.0, 3.0])


def test_zscore_hand_example():
    params = data.scaler_fit(np.array([[1.0], [2.0], [3.0]]), "zscore")
    out = data.scaler_apply(params, np.array([[1.0], [2.0], [3.0]]))
    assert abs(out.mean()) < 1e-12
    assert abs(out.std() - 1.0) < 1e-12


def test_zscore_degenerate_std_clamped():
    params = data.scaler_fit(np.array([[5.0], [5.0]]), "zscore")
    assert params.degenerate[0]
    out = data.scaler_apply(params, np.array([[5.0], [6.0]]))
    assert np.allclose(out.ravel(), [0.0, 1.0])


def test_scaler_feature_count_mismatch():
    params = data.scaler_fit(np.zeros((3, 2)), "minmax")
    with pytest.raises(ValueError):
        data.scaler_apply(params, np.zeros((3, 3)))


def test_scaler_unknown_kind():
    with pytest.raises(ValueError):
        data.scaler_fit(np.zeros((3, 2)), "robust")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["minmax", "zscore"]))
def test_scaler_round_trip_property(seed, kind):
    rng = np.random.default_rng(seed)
    train = rng.normal(0, 5, size=(6, 3))
    test = rng.normal(0, 5, size=(4, 3))
    params = data.scaler_fit(train, kind)
    back = data.scaler_invert(params, data.scaler_apply(params, test))
    assert np.max(np.abs(back - test)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_minmax_train_data_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(5, 4))
    params = data.scaler_fit(train, "minmax")
    out = data.scaler_apply(params, train)
    assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# Splitting


def test_split_sizes_small():
    idx = data.split(10, (0.8, 0.1, 0.1), seed=0)
    assert (idx.train.size, idx.val.size, idx.test.size) == (8, 1, 1)


def test_split_sizes_documented_example():
    idx = data.split(589, (0.9, 0.05, 0.05), seed=0)
    assert (idx.train.size, idx.val.size, idx.test.size) == (530, 29, 30)


def test_split_deterministic_per_seed():
    a = data.split(50, (0.8, 0.1, 0.1), seed=5)
    b = data.split(50, (0.8, 0.1, 0.1), seed=5)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        data.split(10, (0.5, 0.4, 0.2), seed=0)
    with pytest.raises(ValueError):
        data.split(3, (0.98, 0.01, 0.01), seed=0)  # empty partitions


@settings(max_examples=200, deadline=None)
@given(st.integers(10, 2000), st.integers(0, 2**31 - 1))
def test_split_partition_property(n, seed):
    idx = data.split(n, (0.8, 0.1, 0.1), seed=seed)
    merged = np.concatenate([idx.train, idx.val, idx.test])
    assert merged.size == n
    assert np.array_equal(np.sort(merged), np.arange(n))


# ---------------------------------------------------------------------------
# Synthetic surrogate


def test_synthetic_zero_alpha_noiseless_peak_is_one():
    config = SyntheticConfig(n_samples=5, planted_alpha=(0, 0, 0, 0),
                             noise_std=0.0, seed=2)
    for s in data.generate_synthetic(config):
        assert abs(s.curve.stress.max() - 1.0) < 1e-12


def test_synthetic_noiseless_peak_matches_planted_law():
    config = SyntheticConfig(n_samples=50, noise_std=0.0, seed=4)
    alpha = np.asarray(config.planted_alpha)
    for s in data.generate_synthetic(config):
        assert abs(np.log(s.curve.stress.max()) - alpha @ s.minkowski) < 1e-9


def test_synthetic_deterministic_per_seed():
    a = data.generate_synthetic(SyntheticConfig(n_samples=6, seed=9))
    b = data.generate_synthetic(SyntheticConfig(n_samples=6, seed=9))
    for s, t in zip(a, b):
        assert s.id == t.id
        assert np.array_equal(s.curve.stress, t.curve.stress)
        assert np.array_equal(s.minkowski, t.minkowski)
        assert np.array_equal(s.aux_features, t.aux_features)


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(n_samples=0)
    with pytest.raises(ValueError):
        SyntheticConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        SyntheticConfig(curve_shape="bezier")


def test_synthetic_stress_nonnegative_and_finite():
    samples = data.generate_synthetic(SyntheticConfig(n_samples=20, seed=11,
                                                      noise_std=0.05))
    for s in samples:
        assert np.all(s.curve.stress >= 0.0)
        assert np.all(np.isfinite(s.curve.stress))
        assert s.aux_features.shape == (35,)
