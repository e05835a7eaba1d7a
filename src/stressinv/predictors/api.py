"""Stage 2: train and apply the six predictor families.

Inputs are stage-1 reconstructions of freshly masked curves; in
"with_function" mode every family also receives the normalized log peak
stress as an extra feature, and the DNN is additionally warmed up with the
strength-law consistency objective.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict, field

import numpy as np

from .. import data, strength
from ..nnet import Tensor, no_grad, Adam, adamw, Module
from ..nnet.serialize import arrays_to_json, arrays_from_json, dump_json, load_json
from ..reconstructor import reconstruct
from .neighbors import KNNRegressor
from .neural import (build_dnn, CurveCNN, CurveLSTM, train_network,
                     consistency_penalty)
from .trees import RandomForest, GradientBoosting

PREDICTOR_KINDS = ("dnn", "cnn1d", "lstm", "knn", "random_forest", "gbt")
DOMAIN_MODES = ("with_function", "without_function")

BASELINE_SPLIT = (0.9, 0.05, 0.05)
# 80/20 train/test with a 10% validation carve-out of the training portion.
DNN_SPLIT = (0.72, 0.08, 0.2)


@dataclass(frozen=True)
class DnnPredictorConfig:
    dropouts: tuple = (0.2, 0.2, 0.25, 0.0)
    lr: float = 1e-3
    weight_decay: float = 1e-5
    plateau_factor: float = 0.5
    plateau_patience: int = 10
    plateau_min_delta: float = 1e-6
    early_patience: int = 20
    batch_size: int = 32
    max_epochs: int = 500
    pretrain_epochs: int = 50
    lambda_consistency: float = 0.1

    def __post_init__(self):
        if self.lambda_consistency < 0:
            raise ValueError("lambda_consistency must be >= 0")


@dataclass(frozen=True)
class KnnConfig:
    k: int = 5


@dataclass(frozen=True)
class RandomForestConfig:
    n_trees: int = 300
    max_depth: int = 16
    min_leaf: int = 2
    features_per_split: int | None = None  # None -> ceil(sqrt(d))
    bootstrap: bool = True


@dataclass(frozen=True)
class GbtConfig:
    n_rounds: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    l2_lambda: float = 1.0


@dataclass(frozen=True)
class Cnn1dConfig:
    channels: tuple = (8, 16)
    kernels: tuple = (7, 5)
    pool: int = 2
    head_width: int = 64
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    early_patience: int = 20
    plateau_factor: float = 0.5
    plateau_patience: int = 10


@dataclass(frozen=True)
class LstmConfig:
    hidden_size: int = 64
    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    early_patience: int = 10
    plateau_factor: float = 0.5
    plateau_patience: int = 5


_CONFIG_TYPES = {
    "dnn": DnnPredictorConfig,
    "cnn1d": Cnn1dConfig,
    "lstm": LstmConfig,
    "knn": KnnConfig,
    "random_forest": RandomForestConfig,
    "gbt": GbtConfig,
}


def default_config(kind):
    if kind not in _CONFIG_TYPES:
        raise ValueError(f"unknown predictor kind {kind!r}")
    return _CONFIG_TYPES[kind]()


@dataclass
class TrainedPredictor:
    kind: str
    domain_mode: str
    model: object
    input_scaler: data.ScalerParams
    target_scaler: data.ScalerParams
    strength_law: strength.StrengthLaw | None
    config: object
    seed: int
    split: data.SplitIndices
    grid: data.StrainGrid
    train_runtime_s: float
    history: list = field(default_factory=list)


def build_inputs(dataset, reconstructor_model, seed, use_raw_curves=False):
    """Reconstructed full curves for every sample (stage-1 output on fresh masks)."""
    if use_raw_curves:
        return [s.curve for s in dataset]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5eed]))
    fraction_range = reconstructor_model.config.mask_fraction_range
    curves = []
    for sample in dataset:
        masked = data.mask_curve(sample.curve, fraction_range, rng)
        curves.append(reconstruct(reconstructor_model, masked))
    return curves


def train_predictor(kind, dataset, reconstructor_model, domain_mode,
                    config=None, seed=0, use_raw_curves=False, input_curves=None):
    """Train one stage-2 predictor; returns a TrainedPredictor.

    input_curves, if given, is build_inputs(dataset, reconstructor_model,
    seed, use_raw_curves) computed once by a caller training several cells.
    """
    if kind not in PREDICTOR_KINDS:
        raise ValueError(f"unknown predictor kind {kind!r}")
    if domain_mode not in DOMAIN_MODES:
        raise ValueError(f"unknown domain mode {domain_mode!r}")
    config = config or default_config(kind)

    grid = dataset[0].curve.grid
    n = len(dataset)
    fractions = DNN_SPLIT if kind == "dnn" else BASELINE_SPLIT
    indices = data.split(n, fractions, seed)

    if input_curves is None:
        input_curves = build_inputs(dataset, reconstructor_model, seed,
                                    use_raw_curves=use_raw_curves)
    y = data.minkowski_matrix(dataset)

    law = None
    if domain_mode == "with_function":
        train_strengths = [strength.peak_stress(dataset[i].curve)
                           for i in indices.train]
        law = strength.fit(y[indices.train], train_strengths)
        x = np.stack([strength.augment_features(c.stress, c, law)
                      for c in input_curves])
    else:
        x = np.stack([c.stress for c in input_curves])

    input_scaler = data.scaler_fit(x[indices.train], "zscore")
    target_scaler = data.scaler_fit(y[indices.train], "zscore")
    xs = data.scaler_apply(input_scaler, x)
    ys = data.scaler_apply(target_scaler, y)

    history = []
    start = time.perf_counter()
    if kind == "knn":
        model = KNNRegressor(k=config.k).fit(xs[indices.train], ys[indices.train])
    elif kind == "random_forest":
        model = RandomForest(n_trees=config.n_trees, max_depth=config.max_depth,
                             min_leaf=config.min_leaf,
                             features_per_split=config.features_per_split,
                             bootstrap=config.bootstrap, seed=seed)
        model.fit(xs[indices.train], ys[indices.train])
    elif kind == "gbt":
        model = GradientBoosting(n_rounds=config.n_rounds, max_depth=config.max_depth,
                                 learning_rate=config.learning_rate,
                                 l2_lambda=config.l2_lambda)
        model.fit(xs[indices.train], ys[indices.train])
    else:
        model, history = _train_neural(kind, config, xs, ys, indices, law,
                                       target_scaler, dataset, grid, seed,
                                       domain_mode)
    runtime = time.perf_counter() - start

    return TrainedPredictor(kind=kind, domain_mode=domain_mode, model=model,
                            input_scaler=input_scaler, target_scaler=target_scaler,
                            strength_law=law, config=config, seed=seed,
                            split=indices, grid=grid, train_runtime_s=runtime,
                            history=history)


def _train_neural(kind, config, xs, ys, indices, law, target_scaler,
                  dataset, grid, seed, domain_mode):
    width = xs.shape[1]
    p = len(grid)
    init_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
    train_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7a15]))
    if kind == "dnn":
        network = build_dnn(width, init_rng, dropouts=config.dropouts)
        optimizer = adamw(network.parameters(), lr=config.lr,
                          weight_decay=config.weight_decay)
    elif kind == "cnn1d":
        network = CurveCNN(p, width - p, init_rng, channels=config.channels,
                           kernels=config.kernels, pool=config.pool,
                           head_width=config.head_width)
        optimizer = Adam(network.parameters(), lr=config.lr)
    else:
        network = CurveLSTM(p, width - p, init_rng, hidden_size=config.hidden_size)
        optimizer = Adam(network.parameters(), lr=config.lr)

    history = []
    if (kind == "dnn" and domain_mode == "with_function"
            and config.pretrain_epochs > 0):
        # consistency targets are the measured training peaks (the same
        # curves the strength law was fitted on); only train-batch entries
        # are ever indexed
        peaks = np.array([strength.peak_stress(s.curve) for s in dataset])
        if np.any(peaks[indices.train] <= 0):
            raise ValueError("non-positive peak stress in pretraining inputs")
        log_peaks = np.where(peaks > 0, np.log(np.where(peaks > 0, peaks, 1.0)), 0.0)

        def extra_loss(pred, batch):
            return consistency_penalty(pred, target_scaler, law.alpha,
                                       log_peaks[batch])

        history += train_network(network, optimizer, xs, ys, indices.train,
                                 indices.val, train_rng,
                                 batch_size=config.batch_size,
                                 fixed_epochs=config.pretrain_epochs,
                                 extra_loss=extra_loss,
                                 lambda_extra=config.lambda_consistency)

    kwargs = dict(batch_size=config.batch_size, max_epochs=config.max_epochs,
                  early_patience=config.early_patience,
                  plateau_factor=config.plateau_factor,
                  plateau_patience=config.plateau_patience)
    if kind == "dnn":
        kwargs["plateau_min_delta"] = config.plateau_min_delta
    history += train_network(network, optimizer, xs, ys, indices.train,
                             indices.val, train_rng, **kwargs)
    return network, history


def predict(trained, curve):
    """Predict the Minkowski 4-vector for one curve on the canonical grid."""
    return predict_batch(trained, [curve])[0]


def predict_batch(trained, curves):
    for curve in curves:
        if len(curve.grid) != len(trained.grid) or not np.allclose(
                curve.grid.points, trained.grid.points):
            raise ValueError("curve is not on the model's strain grid")
    if trained.domain_mode == "with_function":
        x = np.stack([strength.augment_features(c.stress, c, trained.strength_law)
                      for c in curves])
    else:
        x = np.stack([c.stress for c in curves])
    xs = data.scaler_apply(trained.input_scaler, x)
    if isinstance(trained.model, Module):
        trained.model.eval()
        with no_grad():
            out = trained.model(Tensor(xs)).data
    else:
        out = trained.model.predict(xs)
    return data.scaler_invert(trained.target_scaler, out)


# ---------------------------------------------------------------------------
# Serialization

def save_predictor(trained, path):
    envelope = {
        "format": "stressinv-predictor-v1",
        "kind": trained.kind,
        "domain_mode": trained.domain_mode,
        "config": asdict(trained.config),
        "seed": trained.seed,
        "grid": trained.grid.points.tolist(),
        "input_scaler": _scaler_to_json(trained.input_scaler),
        "target_scaler": _scaler_to_json(trained.target_scaler),
        "strength_law": None if trained.strength_law is None else {
            "alpha": trained.strength_law.alpha.tolist(),
            "sigma_ref": trained.strength_law.sigma_ref,
            "norm_min": trained.strength_law.norm_min,
            "norm_max": trained.strength_law.norm_max,
            "sse": trained.strength_law.sse,
            "n": trained.strength_law.n,
        },
        "train_runtime_s": trained.train_runtime_s,
        "split": {"train": trained.split.train.tolist(),
                  "val": trained.split.val.tolist(),
                  "test": trained.split.test.tolist(),
                  "seed": trained.split.seed},
    }
    if isinstance(trained.model, Module):
        envelope["model"] = {"state": arrays_to_json(trained.model.state()),
                             "input_width": int(trained.input_scaler.a.shape[0])}
    else:
        envelope["model"] = trained.model.to_dict()
    dump_json(envelope, path)


def load_predictor(path):
    obj = load_json(path)
    if obj.get("format") != "stressinv-predictor-v1":
        raise ValueError(f"unrecognized predictor format in {path}")
    kind = obj["kind"]
    cfg_dict = dict(obj["config"])
    cfg_type = _CONFIG_TYPES[kind]
    for key, value in cfg_dict.items():
        if isinstance(value, list):
            cfg_dict[key] = tuple(value)
    config = cfg_type(**cfg_dict)
    grid = data.StrainGrid(np.asarray(obj["grid"]))
    p = len(grid)
    law = None
    if obj["strength_law"] is not None:
        rec = obj["strength_law"]
        law = strength.StrengthLaw(alpha=np.asarray(rec["alpha"]),
                                   sigma_ref=rec["sigma_ref"],
                                   norm_min=rec["norm_min"], norm_max=rec["norm_max"],
                                   sse=rec["sse"], n=rec["n"])
    if kind in ("dnn", "cnn1d", "lstm"):
        width = obj["model"]["input_width"]
        rng = np.random.default_rng(0)
        if kind == "dnn":
            model = build_dnn(width, rng, dropouts=config.dropouts)
        elif kind == "cnn1d":
            model = CurveCNN(p, width - p, rng, channels=config.channels,
                             kernels=config.kernels, pool=config.pool,
                             head_width=config.head_width)
        else:
            model = CurveLSTM(p, width - p, rng, hidden_size=config.hidden_size)
        model.load_state(arrays_from_json(obj["model"]["state"]))
        model.eval()
    elif kind == "knn":
        model = KNNRegressor.from_dict(obj["model"])
    elif kind == "random_forest":
        model = RandomForest.from_dict(obj["model"])
    else:
        model = GradientBoosting.from_dict(obj["model"])
    split = data.SplitIndices(train=np.asarray(obj["split"]["train"], dtype=np.intp),
                              val=np.asarray(obj["split"]["val"], dtype=np.intp),
                              test=np.asarray(obj["split"]["test"], dtype=np.intp),
                              seed=obj["split"]["seed"])
    return TrainedPredictor(kind=kind, domain_mode=obj["domain_mode"], model=model,
                            input_scaler=_scaler_from_json(obj["input_scaler"]),
                            target_scaler=_scaler_from_json(obj["target_scaler"]),
                            strength_law=law, config=config, seed=obj["seed"],
                            split=split, grid=grid,
                            train_runtime_s=obj["train_runtime_s"])


def _scaler_to_json(scaler):
    return {"kind": scaler.kind, "a": scaler.a.tolist(), "b": scaler.b.tolist(),
            "degenerate": scaler.degenerate.astype(int).tolist()}


def _scaler_from_json(rec):
    return data.ScalerParams(kind=rec["kind"], a=np.asarray(rec["a"]),
                             b=np.asarray(rec["b"]),
                             degenerate=np.asarray(rec["degenerate"], dtype=bool))
