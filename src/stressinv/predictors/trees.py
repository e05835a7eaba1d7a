"""CART regression trees, bagged forests, and gradient boosting.

Split search minimizes the summed per-output SSE over candidate thresholds
(midpoints between consecutive distinct feature values). Ties resolve to the
lowest feature index and lowest threshold, so fits are deterministic.
"""

from __future__ import annotations

import numpy as np


class TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature=None, threshold=None, left=None, right=None, value=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self):
        return self.value is not None

    def to_dict(self):
        if self.is_leaf:
            return {"value": self.value.tolist()}
        return {"feature": int(self.feature), "threshold": float(self.threshold),
                "left": self.left.to_dict(), "right": self.right.to_dict()}

    @classmethod
    def from_dict(cls, obj):
        if "value" in obj:
            return cls(value=np.asarray(obj["value"], dtype=np.float64))
        return cls(feature=obj["feature"], threshold=obj["threshold"],
                   left=cls.from_dict(obj["left"]), right=cls.from_dict(obj["right"]))


def _node_sse(y):
    mu = y.mean(axis=0)
    return float(((y - mu) ** 2).sum())


def _best_split(x, y, feature_ids, min_leaf, order=None):
    """Best (score, feature, threshold) over the candidate features, or None.

    order[i] lists the node's rows of x stably sorted by feature
    feature_ids[i]; by default all rows, sorted here. All candidates are
    scored in one pass; the row-major argmin keeps the lowest feature, then
    the lowest threshold.
    """
    feature_ids = np.asarray(feature_ids, dtype=np.intp)
    if order is None:
        order = np.argsort(x[:, feature_ids].T, axis=1, kind="stable")
    n = order.shape[1]
    xs = x[order, feature_ids[:, None]]  # (m, n)
    ys = y[order]  # (m, n, k)
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys * ys, axis=1)
    # candidate boundary after position i: left = [0..i], min_leaf rows a side
    valid = xs[:, :-1] < xs[:, 1:]
    valid[:, :max(min_leaf - 1, 0)] = False
    valid[:, max(n - min_leaf, 0):] = False
    if not valid.any():
        return None
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    sse_left = (csq[:, :-1] - csum[:, :-1] ** 2 / n_left).sum(axis=2)
    sse_right = ((csq[:, -1:] - csq[:, :-1])
                 - (csum[:, -1:] - csum[:, :-1]) ** 2 / (n - n_left)).sum(axis=2)
    score = np.where(valid, sse_left + sse_right, np.inf)
    f, j = divmod(int(np.argmin(score)), n - 1)
    return (float(score[f, j]), int(feature_ids[f]),
            float(0.5 * (xs[f, j] + xs[f, j + 1])))


class RegressionTree:
    """Multi-output CART; leaves predict sum(y)/(count + leaf_shrinkage)."""

    def __init__(self, max_depth=None, min_leaf=1, features_per_split=None,
                 leaf_shrinkage=0.0):
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features_per_split = features_per_split
        self.leaf_shrinkage = leaf_shrinkage
        self.root = None

    def _leaf(self, y):
        value = y.sum(axis=0) / (y.shape[0] + self.leaf_shrinkage)
        return TreeNode(value=value)

    def _grow(self, x, y, rows, order, depth, rng):
        # rows: the node's row indices, ascending; order: (d, len(rows)),
        # the same rows stably sorted by each feature
        n, d = rows.size, x.shape[1]
        node_y = y[rows]
        if (n < 2 * self.min_leaf
                or (self.max_depth is not None and depth >= self.max_depth)):
            return self._leaf(node_y)
        if self.features_per_split is None or self.features_per_split >= d:
            feature_ids, candidates = range(d), order
        else:
            feature_ids = np.sort(rng.choice(d, self.features_per_split, replace=False))
            candidates = order[feature_ids]
        best = _best_split(x, y, feature_ids, self.min_leaf, order=candidates)
        if best is None or best[0] >= _node_sse(node_y):
            return self._leaf(node_y)
        _, f, threshold = best
        go_left = x[:, f] <= threshold
        # stable partitions keep the rows ascending and each order sorted
        rows_left, left = go_left[rows], go_left[order]
        return TreeNode(feature=f, threshold=threshold,
                        left=self._grow(x, y, rows[rows_left],
                                        order[left].reshape(d, -1), depth + 1, rng),
                        right=self._grow(x, y, rows[~rows_left],
                                         order[~left].reshape(d, -1), depth + 1, rng))

    def fit(self, x, y, rng=None, order=None):
        """Grow the tree; order is np.argsort(x.T, axis=1, kind="stable"),
        computed here unless a caller fitting the same x several times
        passes it in."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if self.features_per_split is not None and rng is None:
            rng = np.random.default_rng(0)
        if order is None:
            order = np.argsort(x.T, axis=1, kind="stable")
        self.root = self._grow(x, y, np.arange(x.shape[0]), order, 0, rng)
        return self

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        k = self._any_leaf(self.root).value.shape[0]
        out = np.empty((x.shape[0], k))
        self._route(self.root, x, np.arange(x.shape[0]), out)
        return out

    @staticmethod
    def _any_leaf(node):
        while not node.is_leaf:
            node = node.left
        return node

    def _route(self, node, x, idx, out):
        if node.is_leaf:
            out[idx] = node.value
            return
        go_left = x[idx, node.feature] <= node.threshold
        self._route(node.left, x, idx[go_left], out)
        self._route(node.right, x, idx[~go_left], out)


class RandomForest:
    """Bootstrap-aggregated CART trees with per-split feature subsampling."""

    def __init__(self, n_trees=200, max_depth=16, min_leaf=2,
                 features_per_split=None, bootstrap=True, seed=0):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.features_per_split = features_per_split
        self.bootstrap = bootstrap
        self.seed = seed
        self.trees = []

    def fit(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        n, d = x.shape
        m = self.features_per_split
        if m is None:
            m = int(np.ceil(np.sqrt(d)))
        self.trees = []
        for seq in np.random.SeedSequence(self.seed).spawn(self.n_trees):
            rng = np.random.default_rng(seq)
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
                xb, yb = x[idx], y[idx]
            else:
                xb, yb = x, y
            tree = RegressionTree(max_depth=self.max_depth, min_leaf=self.min_leaf,
                                  features_per_split=m)
            tree.fit(xb, yb, rng=rng)
            self.trees.append(tree)
        return self

    def predict(self, x):
        preds = np.stack([t.predict(x) for t in self.trees])
        return preds.mean(axis=0)

    def to_dict(self):
        return {"n_trees": self.n_trees, "max_depth": self.max_depth,
                "min_leaf": self.min_leaf, "features_per_split": self.features_per_split,
                "bootstrap": self.bootstrap, "seed": self.seed,
                "trees": [t.root.to_dict() for t in self.trees]}

    @classmethod
    def from_dict(cls, obj):
        model = cls(n_trees=obj["n_trees"], max_depth=obj["max_depth"],
                    min_leaf=obj["min_leaf"], features_per_split=obj["features_per_split"],
                    bootstrap=obj["bootstrap"], seed=obj["seed"])
        for rec in obj["trees"]:
            tree = RegressionTree(max_depth=model.max_depth, min_leaf=model.min_leaf)
            tree.root = TreeNode.from_dict(rec)
            model.trees.append(tree)
        return model


class GradientBoosting:
    """Per-output squared-error boosting with shrunk leaf values.

    Each round fits a depth-limited tree to the residuals; leaves predict
    sum(residual) / (count + l2_lambda), scaled by the learning rate.
    """

    def __init__(self, n_rounds=200, max_depth=4, learning_rate=0.1, l2_lambda=1.0):
        if n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.l2_lambda = l2_lambda
        self.base = None  # (k,) target means
        self.trees = []  # list over outputs of lists of trees
        self.train_losses = []

    def fit(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        k = y.shape[1]
        self.base = y.mean(axis=0)
        self.trees = [[] for _ in range(k)]
        pred = np.tile(self.base, (y.shape[0], 1))
        self.train_losses = [float(((y - pred) ** 2).mean())]
        order = np.argsort(x.T, axis=1, kind="stable")
        for _ in range(self.n_rounds):
            for j in range(k):
                residual = y[:, j] - pred[:, j]
                tree = RegressionTree(max_depth=self.max_depth,
                                      leaf_shrinkage=self.l2_lambda)
                tree.fit(x, residual, order=order)
                pred[:, j] += self.learning_rate * tree.predict(x)[:, 0]
                self.trees[j].append(tree)
            self.train_losses.append(float(((y - pred) ** 2).mean()))
        return self

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.tile(self.base, (x.shape[0], 1))
        for j, trees in enumerate(self.trees):
            for tree in trees:
                out[:, j] += self.learning_rate * tree.predict(x)[:, 0]
        return out

    def to_dict(self):
        return {"n_rounds": self.n_rounds, "max_depth": self.max_depth,
                "learning_rate": self.learning_rate, "l2_lambda": self.l2_lambda,
                "base": self.base.tolist(),
                "trees": [[t.root.to_dict() for t in trees] for trees in self.trees]}

    @classmethod
    def from_dict(cls, obj):
        model = cls(n_rounds=obj["n_rounds"], max_depth=obj["max_depth"],
                    learning_rate=obj["learning_rate"], l2_lambda=obj["l2_lambda"])
        model.base = np.asarray(obj["base"], dtype=np.float64)
        model.trees = []
        for recs in obj["trees"]:
            trees = []
            for rec in recs:
                tree = RegressionTree(max_depth=model.max_depth,
                                      leaf_shrinkage=model.l2_lambda)
                tree.root = TreeNode.from_dict(rec)
                trees.append(tree)
            model.trees.append(trees)
        return model
