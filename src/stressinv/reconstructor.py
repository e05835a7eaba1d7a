"""Stage 1: dense network mapping masked/imputed stress curves to full curves."""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import data
from .metrics import r2
from .nnet import (Tensor, no_grad, Sequential, Linear, LayerNorm, LeakyReLU,
                   Dropout, Adam, StepDecay, train_network)
from .nnet.serialize import save_checkpoint, load_checkpoint


@dataclass(frozen=True)
class ReconstructorConfig:
    hidden_widths: tuple = (1024, 512, 256, 128)
    leaky_slope: float = 0.01
    dropout_p: float = 0.2
    lr: float = 0.0003
    weight_decay: float = 1e-4
    step_factor: float = 0.5
    step_interval: int = 50
    epochs: int = 500
    batch_size: int = 32
    mask_fraction_range: tuple = (0.2, 0.5)
    split_fractions: tuple = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class ReconstructorModel:
    network: Sequential
    input_scaler: data.ScalerParams
    target_scaler: data.ScalerParams
    impute_stats: np.ndarray
    grid: data.StrainGrid
    config: ReconstructorConfig


def build_network(input_width, config, rng):
    layers = []
    width = input_width
    for hidden in config.hidden_widths:
        layers += [Linear(width, hidden, rng),
                   LayerNorm(hidden),
                   LeakyReLU(config.leaky_slope),
                   Dropout(config.dropout_p)]
        width = hidden
    layers.append(Linear(width, input_width, rng))
    return Sequential(*layers)


def train_reconstructor(dataset, config):
    """Mask, impute, scale, and train; returns (model, history).

    The returned model carries the parameters with the lowest validation
    loss seen over the full schedule. History rows are dicts with keys
    epoch, train_loss (the training MSE), val_mse, lr.
    """
    if len(dataset) < 30:
        raise ValueError("train_reconstructor needs at least 30 samples")
    grid = dataset[0].curve.grid
    p = len(grid)
    master = np.random.default_rng(config.seed)
    mask_rng, init_rng, train_rng = (np.random.default_rng(s)
                                     for s in master.integers(0, 2**63, size=3))

    indices = data.split(len(dataset), config.split_fractions, config.seed)
    masked = [data.mask_curve(s.curve, config.mask_fraction_range, mask_rng)
              for s in dataset]
    impute_stats = data.position_means([masked[i] for i in indices.train])
    inputs = data.impute_mean(masked, impute_stats)
    targets = np.stack([s.curve.stress for s in dataset])

    input_scaler = data.scaler_fit(inputs[indices.train], "minmax")
    target_scaler = data.scaler_fit(targets[indices.train], "minmax")
    x = data.scaler_apply(input_scaler, inputs)
    y = data.scaler_apply(target_scaler, targets)

    def fresh_inputs(batch):
        """Resample mask windows so every epoch sees new corruptions."""
        batch_masked = [data.mask_curve(dataset[i].curve,
                                        config.mask_fraction_range, mask_rng)
                        for i in batch]
        return data.scaler_apply(input_scaler,
                                 data.impute_mean(batch_masked, impute_stats))

    network = build_network(p, config, init_rng)
    optimizer = Adam(network.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    history = train_network(network, optimizer, x, y, indices.train, indices.val,
                            train_rng, batch_size=config.batch_size,
                            epochs=config.epochs,
                            schedule=StepDecay(config.step_factor,
                                               config.step_interval),
                            batch_input=fresh_inputs, min_batch=1)
    model = ReconstructorModel(network=network, input_scaler=input_scaler,
                               target_scaler=target_scaler,
                               impute_stats=impute_stats, grid=grid, config=config)
    return model, history


def reconstruct(model, masked_curves, copy_through=True):
    """Impute, scale, run the network in eval mode, and inverse-scale, in one
    batch; returns one StressCurve per MaskedCurve.

    With copy_through (default), observed positions are returned bit-equal
    to the input; the network only fills the masked windows.
    """
    if not masked_curves:
        return []
    if any(len(m.grid) != len(model.grid) for m in masked_curves) or not np.allclose(
            np.stack([m.grid.points for m in masked_curves]), model.grid.points):
        raise ValueError("masked curve is not on the model's strain grid")
    x = data.scaler_apply(model.input_scaler,
                          data.impute_mean(masked_curves, model.impute_stats))
    model.network.eval()
    with no_grad():
        out = model.network(Tensor(x)).data
    stress = data.scaler_invert(model.target_scaler, out)
    if copy_through:
        stress = np.where(np.stack([m.mask for m in masked_curves]),
                          np.stack([m.stress for m in masked_curves]), stress)
    return [data.StressCurve(m.grid, row) for m, row in zip(masked_curves, stress)]


def evaluate_reconstruction(model, test_samples, mask_seed,
                            fraction_range=None, copy_through=True):
    """Pooled R^2 across every point of every masked-then-reconstructed curve."""
    if not test_samples:
        raise ValueError("empty test set")
    fraction_range = fraction_range or model.config.mask_fraction_range
    rng = np.random.default_rng(mask_seed)
    masked = [data.mask_curve(s.curve, fraction_range, rng) for s in test_samples]
    recon = reconstruct(model, masked, copy_through=copy_through)
    return r2(np.concatenate([s.curve.stress for s in test_samples]),
              np.concatenate([c.stress for c in recon]))


def save_reconstructor(model, path):
    arch = {"kind": "reconstructor", "config": asdict(model.config),
            "input_width": len(model.grid)}
    extra = {
        "input_scaler": data.scaler_to_json(model.input_scaler),
        "target_scaler": data.scaler_to_json(model.target_scaler),
        "impute_stats": model.impute_stats.tolist(),
        "grid": model.grid.points.tolist(),
    }
    save_checkpoint(path, arch, model.network, model.config.seed, extra=extra)


def load_reconstructor(path):
    envelope = load_checkpoint(path)
    arch = envelope["arch"]
    if arch["kind"] != "reconstructor":
        raise ValueError(f"{path} is not a reconstructor checkpoint")
    cfg_dict = dict(arch["config"])
    for key in ("hidden_widths", "mask_fraction_range", "split_fractions"):
        cfg_dict[key] = tuple(cfg_dict[key])
    config = ReconstructorConfig(**cfg_dict)
    network = build_network(arch["input_width"], config, np.random.default_rng(0))
    network.load_state(envelope["state"])
    network.eval()
    return ReconstructorModel(
        network=network,
        input_scaler=data.scaler_from_json(envelope["input_scaler"]),
        target_scaler=data.scaler_from_json(envelope["target_scaler"]),
        impute_stats=np.asarray(envelope["impute_stats"]),
        grid=data.StrainGrid(np.asarray(envelope["grid"])),
        config=config,
    )


def write_history_csv(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_mse,val_mse,lr\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']!r},"
                     f"{row['val_mse']!r},{row['lr']!r}\n")
