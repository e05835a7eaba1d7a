"""Stage-2 predictor API: feature widths, architectures, training wiring,
determinism, and serialization across all six families."""

import hashlib

import numpy as np
import pytest

from stressinv import data, strength
from stressinv.nnet import Tensor, NumericError
from stressinv.predictors import api
from stressinv.predictors.api import (train_predictor, predict_batch,
                                      save_predictor, load_predictor,
                                      default_config, DnnPredictorConfig,
                                      Cnn1dConfig, LstmConfig, KnnConfig,
                                      RandomForestConfig, GbtConfig)
from stressinv.predictors.neural import (build_dnn, consistency_penalty, CurveCNN,
                                         CurveLSTM)

TINY_CONFIGS = {
    "dnn": DnnPredictorConfig(max_epochs=3, pretrain_epochs=2, early_patience=3),
    "cnn1d": Cnn1dConfig(channels=(2, 4), head_width=8, max_epochs=2),
    "lstm": LstmConfig(hidden_size=8, max_epochs=2),
    "knn": KnnConfig(k=3),
    "random_forest": RandomForestConfig(n_trees=5, max_depth=6),
    "gbt": GbtConfig(n_rounds=10, max_depth=3),
}


@pytest.fixture(scope="module")
def dataset():
    return data.generate_synthetic(data.SyntheticConfig(n_samples=60, seed=0))


def train_tiny(kind, dataset, mode="without_function", seed=0):
    return train_predictor(kind, dataset, None, mode,
                           config=TINY_CONFIGS[kind], seed=seed,
                           use_raw_curves=True)


# ---------------------------------------------------------------------------
# Feature construction

def test_without_function_uses_curve_width(dataset):
    trained = train_tiny("knn", dataset)
    assert trained.input_scaler.a.shape == (100,)
    assert trained.strength_law is None


def test_with_function_appends_one_feature(dataset):
    trained = train_tiny("knn", dataset, mode="with_function")
    assert trained.input_scaler.a.shape == (101,)
    assert trained.strength_law is not None


def test_with_function_law_matches_refit_on_train_split(dataset):
    trained = train_tiny("gbt", dataset, mode="with_function")
    y = data.minkowski_matrix(dataset)
    peaks = [strength.peak_stress(dataset[i].curve)
             for i in trained.split.train]
    refit = strength.fit(y[trained.split.train], peaks)
    assert np.array_equal(refit.alpha, trained.strength_law.alpha)


def test_unknown_kind_and_mode_rejected(dataset):
    with pytest.raises(ValueError, match="kind"):
        train_predictor("svm", dataset, None, "without_function",
                        use_raw_curves=True)
    with pytest.raises(ValueError, match="mode"):
        train_predictor("knn", dataset, None, "sideways",
                        use_raw_curves=True)


def test_default_config_types():
    assert isinstance(default_config("dnn"), DnnPredictorConfig)
    with pytest.raises(ValueError):
        default_config("mystery")


def test_split_fractions_by_family(dataset):
    deep = train_tiny("dnn", dataset)
    shallow = train_tiny("knn", dataset)
    assert len(deep.split.train) == int(0.72 * 60)
    assert len(shallow.split.train) == int(0.9 * 60)


# ---------------------------------------------------------------------------
# DNN architecture

def test_dnn_parameter_count_closed_form():
    # linear layers contribute in*out + out; each batch norm 2*width
    network = build_dnn(101, np.random.default_rng(0))
    expected = ((101 * 512 + 512) + 2 * 512          # input block
                + 2 * (512 * 512 + 512 + 2 * 512)    # residual main + shortcut
                + (512 * 256 + 256) + 2 * 256
                + (256 * 128 + 128) + 2 * 128
                + (128 * 4 + 4))
    assert sum(p.data.size for p in network.parameters()) == expected


def test_dnn_batch_output_shape():
    network = build_dnn(100, np.random.default_rng(1))
    network.eval()
    out = network(Tensor(np.random.default_rng(2).normal(size=(8, 100))))
    assert out.data.shape == (8, 4)


def test_dnn_rejects_empty_input():
    with pytest.raises(ValueError):
        build_dnn(0, np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["cnn1d", "lstm"])
def test_curve_networks_reject_nonfinite_activation(kind):
    rng = np.random.default_rng(4)
    if kind == "cnn1d":
        network = CurveCNN(100, 1, rng, channels=(2, 4), head_width=8)
        network.conv1.weight.data[0, 0, 0] = np.inf
        layer = "Conv1d"
    else:
        network = CurveLSTM(100, 1, rng, hidden_size=8)
        network.lstm.w_h.data[0, 0] = np.inf
        layer = "LSTM"
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match=f"non-finite activation from {layer}"):
        network(Tensor(rng.normal(size=(3, 101))))


# ---------------------------------------------------------------------------
# Consistency penalty

def test_consistency_penalty_zero_when_law_satisfied():
    rng = np.random.default_rng(3)
    alpha = rng.normal(size=4)
    pred = rng.normal(size=(6, 4))
    log_peaks = pred @ alpha
    identity = data.ScalerParams(kind="zscore", a=np.zeros(4), b=np.ones(4),
                                 degenerate=np.zeros(4, dtype=bool))
    value = consistency_penalty(Tensor(pred), identity, alpha, log_peaks)
    assert value.item() < 1e-24


def test_consistency_penalty_positive_off_law():
    alpha = np.array([1.0, 0.0, 0.0, 0.0])
    identity = data.ScalerParams(kind="zscore", a=np.zeros(4), b=np.ones(4),
                                 degenerate=np.zeros(4, dtype=bool))
    pred = np.array([[1.0, 0.0, 0.0, 0.0]])
    value = consistency_penalty(Tensor(pred), identity, alpha, np.array([3.0]))
    assert value.item() == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Training behavior

def test_knn_k1_recalls_training_targets(dataset):
    config = KnnConfig(k=1)
    trained = train_predictor("knn", dataset, None, "without_function",
                              config=config, seed=0, use_raw_curves=True)
    y = data.minkowski_matrix(dataset)
    train_curves = [dataset[i].curve for i in trained.split.train]
    pred = predict_batch(trained, train_curves)
    assert np.max(np.abs(pred - y[trained.split.train])) < 1e-9


def test_rf_predictions_within_training_target_range(dataset):
    trained = train_tiny("random_forest", dataset)
    y = data.minkowski_matrix(dataset)[trained.split.train]
    pred = predict_batch(trained, [s.curve for s in dataset])
    assert np.all(pred >= y.min(axis=0) - 1e-9)
    assert np.all(pred <= y.max(axis=0) + 1e-9)


def test_neural_training_records_history(dataset):
    trained = train_tiny("dnn", dataset, mode="with_function")
    # 2 warmup epochs + 3 regular epochs (no early stop that soon)
    assert len(trained.history) == 5


def test_same_seed_same_predictions(dataset):
    probes = [s.curve for s in dataset[:5]]
    for kind in ("dnn", "random_forest"):
        a = train_tiny(kind, dataset, seed=7)
        b = train_tiny(kind, dataset, seed=7)
        assert np.array_equal(predict_batch(a, probes),
                              predict_batch(b, probes)), kind


def test_predict_single_curve_matches_batch(dataset):
    trained = train_tiny("knn", dataset)
    single = predict_batch(trained, [dataset[0].curve])
    batch = predict_batch(trained, [s.curve for s in dataset[:7]])
    assert np.array_equal(single[0], batch[0])


def test_predict_rejects_foreign_grid(dataset):
    trained = train_tiny("knn", dataset)
    foreign = data.StressCurve(data.StrainGrid(np.linspace(0, 0.5, 100)),
                               np.linspace(0, 1, 100))
    with pytest.raises(ValueError):
        predict_batch(trained, [foreign])


# ---------------------------------------------------------------------------
# Serialization

@pytest.mark.parametrize("kind", api.PREDICTOR_KINDS)
def test_save_load_round_trip(kind, dataset, tmp_path):
    mode = "with_function" if kind in ("dnn", "knn") else "without_function"
    trained = train_tiny(kind, dataset, mode=mode)
    path = str(tmp_path / f"{kind}.json")
    save_predictor(trained, path)
    loaded = load_predictor(path)
    probes = [s.curve for s in dataset[:6]]
    assert np.array_equal(predict_batch(trained, probes),
                          predict_batch(loaded, probes))
    assert loaded.kind == kind
    assert loaded.domain_mode == mode
    assert loaded.config == trained.config


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="format"):
        load_predictor(str(path))


# ---------------------------------------------------------------------------
# Bit-identity of training

# sha256 of the save_predictor bytes (runtime zeroed) and the epoch history of
# the networks below, computed with the stage-2 training loop before the
# reconstructor's loop was folded into it (fp64, OpenBLAS on x86-64)
GOLDEN_NETWORK_DIGEST = "fd2d59a72a6b35b886d952cd26a785400fc4914d618fb510c82d5b68ff485957"


def test_networks_are_bit_identical_to_golden_digest(dataset, tmp_path):
    cells = [
        # 43 training rows in batches of 14 leave a skipped 1-row batch; the
        # with_function mode adds the consistency warm-up
        ("dnn", "with_function",
         DnnPredictorConfig(max_epochs=3, pretrain_epochs=2, early_patience=3,
                            batch_size=14)),
        # a high lr with short patience decays the lr, stops early after
        # epoch 3 and restores the epoch-1 state
        ("cnn1d", "without_function",
         Cnn1dConfig(channels=(2, 4), head_width=8, lr=0.03, max_epochs=10,
                     early_patience=2, plateau_patience=1)),
        ("lstm", "with_function", TINY_CONFIGS["lstm"]),
    ]
    h = hashlib.sha256()
    for kind, mode, config in cells:
        trained = train_predictor(kind, dataset, None, mode, config=config,
                                  seed=5, use_raw_curves=True)
        trained.train_runtime_s = 0.0
        path = tmp_path / f"{kind}.json"
        save_predictor(trained, str(path))
        h.update(path.read_bytes())
        h.update(repr([sorted(row.items()) for row in trained.history]).encode())
    assert h.hexdigest() == GOLDEN_NETWORK_DIGEST
