"""Acceptance suite: eight end-to-end criteria with printed verdicts.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  The expensive artifacts (600-sample dataset, fully trained
stage-1 network) are built once and shared across criteria 3 and 4, which
are marked `slow`; `pytest -m "not slow"` skips them.
"""

import json
import os
import time

import numpy as np
import pytest

from stressinv import data, strength, evaluation
from stressinv.cli import main as cli_main
from stressinv.metrics import r2
from stressinv.nnet import (Tensor, Linear, LayerNorm, BatchNorm, Dropout,
                            LeakyReLU, ELU, Residual, Sequential, Conv1d,
                            MaxPool1d, Flatten, LSTM)
from stressinv.nnet import tensor as T
from stressinv.predictors.api import train_predictor
from stressinv.predictors.neighbors import KNNRegressor
from stressinv.predictors.trees import (RegressionTree, GradientBoosting,
                                        _best_split)
from stressinv.reconstructor import (ReconstructorConfig, train_reconstructor,
                                     evaluate_reconstruction)

from conftest import central_difference, max_rel_err
from test_trees import brute_force_best_split

FD_H = 1e-5
FD_TOL = 1e-4
N_CASES = 20


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _verdict_capture(pytestconfig):
    # verdict lines must reach the terminal even without pytest -s
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield


def _verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"\nACCEPTANCE CRITERION {number} [{label}]: {status}{suffix}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {number} [{label}] failed{suffix}"


# ---------------------------------------------------------------------------
# Shared expensive artifacts

@pytest.fixture(scope="module")
def dataset600():
    return data.generate_synthetic(data.SyntheticConfig())


@pytest.fixture(scope="module")
def stage1(dataset600):
    config = ReconstructorConfig()  # 500 epochs, full architecture
    start = time.perf_counter()
    model, history = train_reconstructor(dataset600, config)
    elapsed = time.perf_counter() - start
    return model, history, elapsed


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences

def _fd_case_builders(rng):
    """Each builder returns (loss_fn, tensors_to_check)."""
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    y = rng.normal(size=(4, 6))
    y3 = rng.normal(size=(4, 3))

    def lin():
        layer = Linear(6, 3, rng)
        return (lambda: T.mse_loss(layer(x), Tensor(y3)),
                [x, layer.weight, layer.bias])

    def lnorm():
        layer = LayerNorm(6)
        layer.gamma.data = rng.normal(size=6)
        layer.beta.data = rng.normal(size=6)
        return (lambda: T.mse_loss(layer(x), Tensor(y)),
                [x, layer.gamma, layer.beta])

    def bnorm():
        layer = BatchNorm(6)
        layer.gamma.data = rng.normal(size=6)
        layer.beta.data = rng.normal(size=6)

        def loss():
            layer.running_mean[:] = 0.0
            layer.running_var[:] = 1.0
            layer.train()
            return T.mse_loss(layer(x), Tensor(y))
        return loss, [x, layer.gamma, layer.beta]

    def act():
        # kink-free inputs for the leaky ReLU
        safe = Tensor(np.where(np.abs(x.data) < 0.05, 0.1, x.data),
                      requires_grad=True)
        relu, elu = LeakyReLU(0.01), ELU(1.0)
        return lambda: T.mse_loss(elu(relu(safe)), Tensor(y)), [safe]

    def drop():
        layer = Dropout(0.3)
        layer.train()

        def loss():
            return T.mse_loss(layer(x, rng=np.random.default_rng(1234)),
                              Tensor(y))
        return loss, [x]

    def res():
        block = Residual(main=Linear(6, 6, rng), shortcut=Linear(6, 6, rng))
        return (lambda: T.mse_loss(block(x), Tensor(y)),
                [x] + list(block.parameters()))

    def conv():
        sig = Tensor(rng.normal(size=(2, 1, 12)), requires_grad=True)
        layer = Conv1d(1, 2, 3, rng)
        pool = MaxPool1d(2)
        target = rng.normal(size=(2, 10))

        def loss():
            z = Flatten()(pool(layer(sig)))
            return T.mse_loss(z, Tensor(target))
        return loss, [sig, layer.weight, layer.bias]

    def lstm():
        seq = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
        cell = LSTM(1, 4, rng)
        head = Linear(4, 2, rng)
        target = rng.normal(size=(3, 2))
        return (lambda: T.mse_loss(head(cell(seq)), Tensor(target)),
                [seq] + list(cell.parameters()))

    def consistency():
        alpha = rng.normal(size=4)
        pred = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        scaler = data.ScalerParams(kind="zscore", a=rng.normal(size=4),
                                   b=rng.uniform(0.5, 2.0, size=4),
                                   degenerate=np.zeros(4, dtype=bool))
        peaks = rng.normal(size=5)
        from stressinv.predictors.neural import consistency_penalty
        return (lambda: consistency_penalty(pred, scaler, alpha, peaks),
                [pred])

    return {"linear": lin, "layer_norm": lnorm, "batch_norm": bnorm,
            "activations": act, "dropout": drop, "residual": res,
            "conv_pool": conv, "lstm": lstm, "consistency": consistency}


def _check_fd(loss_fn, tensors):
    value = loss_fn()
    value.backward()
    grads = [t.grad.copy() for t in tensors]
    for tensor, grad in zip(tensors, grads):
        def scalar(flat, tensor=tensor):
            saved = tensor.data.copy()
            tensor.data = flat.reshape(tensor.data.shape)
            out = loss_fn().item()
            tensor.data = saved
            return out
        numeric = central_difference(scalar, tensor.data.ravel().copy(),
                                     h=FD_H).reshape(tensor.data.shape)
        err = max_rel_err(grad, numeric)
        if err > FD_TOL:
            return err
    return 0.0


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    worst = {}
    for name, builder in _fd_case_builders(np.random.default_rng(0)).items():
        for seed in range(N_CASES):
            rng = np.random.default_rng(10_000 + seed)
            loss_fn, tensors = _fd_case_builders(rng)[name]()
            err = _check_fd(loss_fn, tensors)
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v > FD_TOL}
    ok = not bad and elapsed < 60
    _verdict(1, "gradient finite-difference agreement", ok,
             f"worst={max(worst.values()):.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: strength-law recovery on noiseless data

def test_criterion_2_strength_law_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    alpha = np.array([-2.5, 0.4, 0.3, 0.15])
    m = rng.uniform([0.1, 0.5, -1.0, -2.0], [0.5, 2.0, 1.0, 2.0],
                    size=(200, 4))
    law = strength.fit(m, np.exp(m @ alpha))
    alpha_err = float(np.max(np.abs(law.alpha - alpha)))
    stationarity = float(np.max(np.abs(
        2.0 * m.T @ (m @ law.alpha - m @ alpha))))
    elapsed = time.perf_counter() - start
    ok = alpha_err < 1e-8 and stationarity < 1e-8 and elapsed < 1.0
    _verdict(2, "strength-law recovery", ok,
             f"alpha_err={alpha_err:.2e}, grad={stationarity:.2e}, "
             f"{elapsed:.3f}s")


# ---------------------------------------------------------------------------
# Criterion 3: stage-1 reconstruction quality

@pytest.mark.slow
def test_criterion_3_reconstruction_quality(dataset600, stage1):
    model, history, train_seconds = stage1
    indices = data.split(len(dataset600), model.config.split_fractions,
                         model.config.seed)
    test_samples = [dataset600[i] for i in indices.test]
    score = evaluate_reconstruction(model, test_samples, mask_seed=1)
    ok = score >= 0.95 and train_seconds <= 600
    _verdict(3, "held-out curve reconstruction", ok,
             f"pooled R2={score:.4f}, train={train_seconds:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 4: domain knowledge helps (directional, over 5 seeds)

@pytest.mark.slow
def test_criterion_4_domain_knowledge_direction(dataset600, stage1):
    model, _, _ = stage1
    start = time.perf_counter()
    seeds = range(5)
    means = {}
    for kind in ("dnn", "random_forest"):
        for mode in ("with_function", "without_function"):
            means[kind, mode] = [
                evaluation.run_cell(kind, mode, seed, dataset600, model).mean_r2
                for seed in seeds]
    elapsed = time.perf_counter() - start
    wins = {kind: sum(w >= wo for w, wo in
                      zip(means[kind, "with_function"],
                          means[kind, "without_function"]))
            for kind in ("dnn", "random_forest")}
    dnn_with = float(np.mean(means["dnn", "with_function"]))
    ok = (wins["dnn"] >= 4 and wins["random_forest"] >= 4
          and dnn_with >= 0.8 and elapsed <= 1200)
    _verdict(4, "domain-knowledge directional claim", ok,
             f"dnn wins={wins['dnn']}/5, rf wins={wins['random_forest']}/5, "
             f"dnn with-mode mean R2={dnn_with:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 5: metric correctness

def test_criterion_5_metric_correctness():
    exact = (r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
             and r2([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
             and abs(r2([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - 0.5) < 1e-15)
    rng = np.random.default_rng(0)
    affine_ok = True
    for _ in range(100):
        y = rng.normal(size=25)
        yhat = y + rng.normal(0, 0.4, size=25)
        a = float(rng.uniform(0.2, 4.0)) * (-1 if rng.random() < 0.5 else 1)
        b = float(rng.normal())
        affine_ok &= abs(r2(y, yhat) - r2(a * y + b, a * yhat + b)) < 1e-9
    y = rng.normal(size=200)
    mean_score = r2(y, np.full(200, float(rng.normal(size=200).mean())))
    ok = exact and affine_ok and -0.05 < mean_score < 0.05
    _verdict(5, "coefficient-of-determination correctness", ok,
             f"mean-predictor R2={mean_score:+.4f}")


# ---------------------------------------------------------------------------
# Criterion 6: preprocessing fidelity

def _iqr_fixture_ok():
    grid = data.canonical_grid()
    curve = data.StressCurve(grid, np.linspace(0.0, 1.0, 100))
    porosity = [0.20, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.90]
    samples = [data.Sample(id=f"s{i}", minkowski=np.array([p, 1.0, 0.0, 0.0]),
                           curve=curve) for i, p in enumerate(porosity)]
    kept, dropped, fences = data.iqr_filter(samples)
    # quartiles by linear interpolation: q1 = 0.22, q3 = 0.26, iqr = 0.04
    return (dropped == ["s8"] and len(kept) == 8
            and abs(fences[0][0] - (0.22 - 1.5 * 0.04)) < 1e-12
            and abs(fences[0][1] - (0.26 + 1.5 * 0.04)) < 1e-12)


def test_criterion_6_preprocessing_fidelity():
    rng = np.random.default_rng(0)
    grid = data.canonical_grid()
    mask_ok = scaler_ok = True
    for case in range(1000):
        stress = rng.uniform(0.0, 2.0, size=100)
        curve = data.StressCurve(grid, stress)
        masked = data.mask_curve(curve, (0.2, 0.5), rng)
        mask_ok &= bool(np.array_equal(masked.stress[masked.mask],
                                       stress[masked.mask]))
        matrix = rng.normal(size=(6, 5)) * rng.uniform(0.5, 3.0)
        kind = "minmax" if case % 2 == 0 else "zscore"
        scaler = data.scaler_fit(matrix, kind)
        back = data.scaler_invert(scaler, data.scaler_apply(scaler, matrix))
        scaler_ok &= bool(np.allclose(back, matrix, atol=1e-9))
    ok = _iqr_fixture_ok() and mask_ok and scaler_ok
    _verdict(6, "preprocessing fidelity", ok)


def test_criterion_6_published_dataset_conditional():
    samples_csv = os.environ.get("STRESSINV_PUBLISHED_SAMPLES", "")
    curves_csv = os.environ.get("STRESSINV_PUBLISHED_CURVES", "")
    if not (samples_csv and os.path.exists(samples_csv)
            and curves_csv and os.path.exists(curves_csv)):
        pytest.skip("published 654-sample dataset not supplied")
    samples = data.load_dataset(samples_csv, curves_csv)
    kept, _, _ = data.iqr_filter(samples)
    ok = len(samples) == 654 and len(kept) == 589
    _verdict(6, "published-dataset filtering", ok,
             f"{len(samples)} -> {len(kept)}")


# ---------------------------------------------------------------------------
# Criterion 7: baseline sanity

def test_criterion_7_baseline_sanity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 4))
    y = rng.normal(size=(30, 2))
    knn_ok = np.array_equal(KNNRegressor(k=1).fit(x, y).predict(x), y)
    tree_ok = np.max(np.abs(RegressionTree().fit(x, y).predict(x) - y)) < 1e-12
    gbt_ok = True
    for seed in range(10):
        r = np.random.default_rng(seed)
        xs, ys = r.normal(size=(40, 3)), r.normal(size=(40, 2))
        losses = GradientBoosting(n_rounds=15, max_depth=3).fit(xs, ys).train_losses
        gbt_ok &= bool(np.all(np.diff(losses) <= 1e-12))
    split_ok = True
    for seed in range(N_CASES):
        r = np.random.default_rng(seed)
        xs, ys = r.normal(size=(25, 3)), r.normal(size=(25, 2))
        got = _best_split(xs, ys, range(3), 1)
        want = brute_force_best_split(xs, ys)
        split_ok &= got[1] == want[1] and abs(got[2] - want[2]) < 1e-12
    ok = knn_ok and tree_ok and gbt_ok and split_ok
    _verdict(7, "baseline model sanity", ok)


# ---------------------------------------------------------------------------
# Criterion 8: determinism

def test_criterion_8_determinism(tmp_path):
    dataset = data.generate_synthetic(data.SyntheticConfig(n_samples=60,
                                                           seed=5))
    tiny = ReconstructorConfig(hidden_widths=(32, 16), epochs=4,
                               batch_size=16, seed=0)
    a, _ = train_reconstructor(dataset, tiny)
    b, _ = train_reconstructor(dataset, tiny)
    recon_ok = all(np.array_equal(pa, pb)
                   for pa, pb in zip(a.network.state(), b.network.state()))

    from stressinv.predictors.api import DnnPredictorConfig
    cfg = DnnPredictorConfig(max_epochs=2, pretrain_epochs=1)
    pa = train_predictor("dnn", dataset, None, "with_function", config=cfg,
                         seed=3, use_raw_curves=True)
    pb = train_predictor("dnn", dataset, None, "with_function", config=cfg,
                         seed=3, use_raw_curves=True)
    dnn_ok = all(np.array_equal(sa, sb)
                 for sa, sb in zip(pa.model.state(), pb.model.state()))

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "run_dir": str(tmp_path / "run"),
        "synthetic": {"n_samples": 60, "seed": 5},
        "reconstructor": {"hidden_widths": [32, 16], "epochs": 3,
                          "batch_size": 16},
        "predictors": {"knn": {"k": 3},
                       "random_forest": {"n_trees": 3, "max_depth": 4}},
        "comparison": {"kinds": ["knn", "random_forest"],
                       "modes": ["with_function", "without_function"],
                       "seeds": [0]},
    }))
    argv = ["--config", str(cfg_path)]
    for command in ("generate", "preprocess", "train-reconstruct"):
        assert cli_main([command] + argv) == 0
    comparison = tmp_path / "run" / "reports" / "comparison.csv"
    outputs = []
    for jobs in ("1", "1", "3"):
        assert cli_main(["compare", "--jobs", jobs] + argv) == 0
        outputs.append(comparison.read_bytes())
    compare_ok = outputs[0] == outputs[1] == outputs[2]
    ok = recon_ok and dnn_ok and compare_ok
    _verdict(8, "bit-reproducible training and comparison output", ok,
             f"recon={recon_ok}, dnn={dnn_ok}, compare-bytes={compare_ok}")
