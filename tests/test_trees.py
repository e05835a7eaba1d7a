"""CART trees, random forests, and gradient boosting against brute-force
split oracles and structural identities."""

import hashlib
import json

import numpy as np
import pytest

from stressinv.predictors.trees import (TreeNode, RegressionTree, RandomForest,
                                        GradientBoosting, _best_split)


def brute_force_best_split(x, y, min_leaf=1):
    """Exhaustive SSE split search over all features and midpoints."""
    if y.ndim == 1:
        y = y[:, None]
    n, d = x.shape
    best = None
    for f in range(d):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            left = x[:, f] <= thr
            nl, nr = left.sum(), (~left).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = (((y[left] - y[left].mean(axis=0)) ** 2).sum()
                   + ((y[~left] - y[~left].mean(axis=0)) ** 2).sum())
            if best is None or sse < best[0] - 1e-12:
                best = (sse, f, thr)
    return best


# ---------------------------------------------------------------------------
# Split search


@pytest.mark.parametrize("seed", range(20))
def test_depth1_split_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(30, 2))
    got = _best_split(x, y, range(3), min_leaf=1)
    want = brute_force_best_split(x, y)
    assert got[1] == want[1]
    assert got[2] == pytest.approx(want[2])
    assert got[0] == pytest.approx(want[0])


def test_split_on_step_dataset():
    # 1 feature, clean step: threshold must land between the groups
    x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    score, feature, threshold = _best_split(x, y[:, None], range(1), 1)
    assert feature == 0
    assert threshold == pytest.approx(6.0)
    assert score == pytest.approx(0.0)


def test_split_tie_prefers_lowest_feature_then_threshold():
    # two identical features -> same best score; lowest feature index wins
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    _, feature, threshold = _best_split(x, y[:, None], range(2), 1)
    assert feature == 0
    assert threshold == pytest.approx(1.5)


def test_split_respects_min_leaf():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([10.0, 0.0, 0.0, 0.0])
    _, _, threshold = _best_split(x, y[:, None], range(1), min_leaf=2)
    assert threshold == pytest.approx(1.5)  # 0.5 would leave a 1-point leaf


def test_split_no_valid_candidates_returns_none():
    x = np.zeros((4, 1))  # constant feature: no distinct neighbors
    y = np.arange(4.0)
    assert _best_split(x, y[:, None], range(1), 1) is None


@pytest.mark.parametrize("seed", range(10))
def test_split_with_presorted_order_matches_fresh_sort(seed):
    # a node's rows drawn from a larger, tie-heavy sample, presorted the way
    # the tree passes them down, against the same rows sorted afresh
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(size=(50, 4)), 1)
    y = np.round(rng.normal(size=(50, 2)))
    rows = np.sort(rng.choice(50, size=30, replace=False))
    features = np.array([0, 2, 3])
    full = np.argsort(x.T, axis=1, kind="stable")
    order = full[features][np.isin(full[features], rows)].reshape(3, -1)
    for min_leaf in (1, 3):
        want = _best_split(x[rows], y[rows], features, min_leaf)
        got = _best_split(x, y, features, min_leaf, order=order)
        assert got == want


# ---------------------------------------------------------------------------
# Single tree


def test_fully_grown_tree_memorizes_distinct_inputs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 4))
    y = rng.normal(size=(40, 3))
    tree = RegressionTree().fit(x, y)
    assert np.max(np.abs(tree.predict(x) - y)) < 1e-12


def test_tree_depth_limit_produces_constant():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    tree = RegressionTree(max_depth=0).fit(x, y)
    assert np.allclose(tree.predict(x), y.mean())


def test_tree_predictions_within_target_range():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=(50, 2))
    tree = RegressionTree(max_depth=4).fit(x, y)
    pred = tree.predict(rng.normal(size=(30, 3)))
    assert np.all(pred >= y.min(axis=0) - 1e-12)
    assert np.all(pred <= y.max(axis=0) + 1e-12)


def test_tree_leaf_shrinkage_hand_value():
    # one leaf, two samples, shrinkage 1: value = (2+4)/(2+1) = 2
    tree = RegressionTree(max_depth=0, leaf_shrinkage=1.0)
    tree.fit(np.zeros((2, 1)), np.array([2.0, 4.0]))
    assert tree.predict(np.zeros((1, 1)))[0, 0] == pytest.approx(2.0)


def test_tree_min_leaf_validation():
    with pytest.raises(ValueError):
        RegressionTree(min_leaf=0)


def test_tree_node_round_trip():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=(25, 2))
    tree = RegressionTree(max_depth=3).fit(x, y)
    clone = RegressionTree(max_depth=3)
    clone.root = TreeNode.from_dict(tree.root.to_dict())
    probe = rng.normal(size=(10, 3))
    assert np.array_equal(tree.predict(probe), clone.predict(probe))


def test_tree_deterministic_refit():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 2))
    a = RegressionTree(max_depth=5).fit(x, y)
    b = RegressionTree(max_depth=5).fit(x, y)
    probe = rng.normal(size=(20, 4))
    assert np.array_equal(a.predict(probe), b.predict(probe))


# ---------------------------------------------------------------------------
# Random forest


def test_forest_prediction_is_mean_of_trees():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 2))
    forest = RandomForest(n_trees=7, max_depth=4, seed=1).fit(x, y)
    probe = rng.normal(size=(12, 3))
    stacked = np.stack([t.predict(probe) for t in forest.trees])
    assert np.allclose(forest.predict(probe), stacked.mean(axis=0))


def test_forest_single_tree_no_bootstrap_memorizes():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(25, 3))
    y = rng.normal(size=(25, 2))
    forest = RandomForest(n_trees=1, max_depth=None, min_leaf=1,
                          features_per_split=3, bootstrap=False, seed=0)
    forest.fit(x, y)
    assert np.max(np.abs(forest.predict(x) - y)) < 1e-12


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(40, 4))
    y = rng.normal(size=(40, 2))
    probe = rng.normal(size=(15, 4))
    a = RandomForest(n_trees=5, max_depth=5, seed=3).fit(x, y).predict(probe)
    b = RandomForest(n_trees=5, max_depth=5, seed=3).fit(x, y).predict(probe)
    assert np.array_equal(a, b)


def test_forest_round_trip():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(30, 2))
    forest = RandomForest(n_trees=4, max_depth=4, seed=2).fit(x, y)
    clone = RandomForest.from_dict(forest.to_dict())
    probe = rng.normal(size=(10, 3))
    assert np.array_equal(forest.predict(probe), clone.predict(probe))


def test_forest_validation():
    with pytest.raises(ValueError):
        RandomForest(n_trees=0)


# ---------------------------------------------------------------------------
# Gradient boosting


def test_gbt_zero_rounds_is_mean_predictor():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 3))
    y = rng.normal(size=(20, 2))
    model = GradientBoosting(n_rounds=0).fit(x, y)
    assert np.allclose(model.predict(x), y.mean(axis=0))


def test_gbt_one_full_round_nearly_memorizes():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(20, 2))
    y = rng.normal(size=(20, 1))
    model = GradientBoosting(n_rounds=1, max_depth=None, learning_rate=1.0,
                             l2_lambda=1e-9).fit(x, y)
    assert np.max(np.abs(model.predict(x) - y)) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_gbt_training_loss_nonincreasing(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 2))
    model = GradientBoosting(n_rounds=20, max_depth=3).fit(x, y)
    losses = np.array(model.train_losses)
    assert losses.size == 21
    assert np.all(np.diff(losses) <= 1e-12)


def test_gbt_round_trip():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=(30, 2))
    model = GradientBoosting(n_rounds=5, max_depth=3).fit(x, y)
    clone = GradientBoosting.from_dict(model.to_dict())
    probe = rng.normal(size=(10, 3))
    assert np.array_equal(model.predict(probe), clone.predict(probe))


# ---------------------------------------------------------------------------
# Bit-identity of fitted models

# sha256 of the fits below, computed with the per-feature, per-node argsort
# split search that the presorted one replaced
GOLDEN_FIT_DIGEST = "ec1bb7896e583f8ce473f45fc1bd0beb17813c7c4803512bbdb5a5b12aa8ab2e"


def test_fits_are_bit_identical_to_golden_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(2024)
    x = rng.normal(size=(90, 6))
    y = rng.normal(size=(90, 3))
    # ties: features on a 0.1 grid, integer targets
    xt = np.round(rng.uniform(0.0, 1.0, size=(70, 5)), 1)
    yt = np.round(rng.normal(size=(70, 2)))
    probe, probe_t = rng.normal(size=(25, 6)), np.round(rng.uniform(size=(25, 5)), 1)
    models = [
        (RandomForest(n_trees=6, max_depth=6, min_leaf=2, features_per_split=3,
                      bootstrap=True, seed=7).fit(x, y), probe),
        (GradientBoosting(n_rounds=8, max_depth=3, learning_rate=0.3,
                          l2_lambda=0.5).fit(x, y), probe),
        (RandomForest(n_trees=5, max_depth=None, min_leaf=1, features_per_split=2,
                      seed=3).fit(xt, yt), probe_t),
        (GradientBoosting(n_rounds=6, max_depth=4, learning_rate=0.5,
                          l2_lambda=2.0).fit(xt, yt), probe_t),
    ]
    for min_leaf in (1, 2):
        tree = RegressionTree(min_leaf=min_leaf).fit(xt, yt)
        h.update(json.dumps(tree.root.to_dict()).encode())
        h.update(tree.predict(probe_t).tobytes())
    for model, p in models:
        h.update(json.dumps(model.to_dict()).encode())
        h.update(model.predict(p).tobytes())
        if isinstance(model, GradientBoosting):
            h.update(np.array(model.train_losses).tobytes())
    assert h.hexdigest() == GOLDEN_FIT_DIGEST


def test_gbt_validation():
    with pytest.raises(ValueError):
        GradientBoosting(n_rounds=-1)
    with pytest.raises(ValueError):
        GradientBoosting(learning_rate=0.0)
