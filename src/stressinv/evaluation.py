"""Metrics, with/without-function comparison harness, and report emission."""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import time
from dataclasses import dataclass, asdict, field, is_dataclass

import numpy as np

from . import data
from .metrics import r2
from .nnet.serialize import dump_json
from .predictors import (train_predictor, predict_batch, default_config,
                         build_inputs)
from .reconstructor import reconstruct

N_TARGETS = 4
TARGET_NAMES = ("m0", "m1", "m2", "m3")


@dataclass
class MetricsReport:
    kind: str
    domain_mode: str
    seed: int
    config_digest: str
    per_target_r2: list
    mean_r2: float
    train_runtime_s: float
    predict_runtime_s: float
    scatter: dict  # target name -> list of (actual, predicted)


def config_digest(config):
    """Short stable digest of a config (dataclass or plain dict)."""
    obj = asdict(config) if is_dataclass(config) else config
    blob = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def evaluate_predictor(trained, test_samples, reconstructor_model, mask_seed=None):
    """Mask and reconstruct the test curves, predict, and score per target."""
    if not test_samples:
        raise ValueError("empty test set")
    if mask_seed is None:
        mask_seed = trained.seed
    rng = np.random.default_rng(np.random.SeedSequence([int(mask_seed), 0xe7a1]))
    fraction_range = reconstructor_model.config.mask_fraction_range
    curves = []
    for sample in test_samples:
        masked = data.mask_curve(sample.curve, fraction_range, rng)
        curves.append(reconstruct(reconstructor_model, masked))
    start = time.perf_counter()
    predicted = predict_batch(trained, curves)
    predict_runtime = time.perf_counter() - start
    actual = data.minkowski_matrix(test_samples)
    per_target = [r2(actual[:, j], predicted[:, j]) for j in range(N_TARGETS)]
    scatter = {name: [(float(a), float(p)) for a, p in zip(actual[:, j], predicted[:, j])]
               for j, name in enumerate(TARGET_NAMES)}
    return MetricsReport(kind=trained.kind, domain_mode=trained.domain_mode,
                         seed=trained.seed, config_digest=config_digest(trained.config),
                         per_target_r2=per_target,
                         mean_r2=float(np.mean(per_target)),
                         train_runtime_s=trained.train_runtime_s,
                         predict_runtime_s=predict_runtime, scatter=scatter)


@dataclass
class ComparisonTable:
    rows: list  # MetricsReport per (kind, mode, seed) cell
    aggregates: list  # per (kind, mode): mean/min/max of mean_r2 over seeds
    seeds: list
    config_digest: str


def run_cell(kind, mode, seed, dataset, reconstructor_model, configs=None,
             use_raw_curves=False, input_curves=None):
    config = (configs or {}).get(kind) or default_config(kind)
    trained = train_predictor(kind, dataset, reconstructor_model, mode,
                              config=config, seed=seed,
                              use_raw_curves=use_raw_curves,
                              input_curves=input_curves)
    test_samples = [dataset[i] for i in trained.split.test]
    return evaluate_predictor(trained, test_samples, reconstructor_model,
                              mask_seed=seed)


def run_comparison(dataset, kinds, modes, seeds, reconstructor_model,
                   configs=None, jobs=1, use_raw_curves=False):
    """Train and evaluate every (kind, mode, seed) cell; aggregate over seeds.

    The stage-1 inputs depend only on the seed, so they are built once per
    seed and shared by its cells. Cells run independently (optionally in a
    thread pool); results are ordered deterministically, so output is
    invariant to the job count.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    cells = [(kind, mode, seed) for kind in kinds for mode in modes
             for seed in seeds]
    inputs = {seed: build_inputs(dataset, reconstructor_model, seed,
                                 use_raw_curves=use_raw_curves)
              for seed in seeds}

    def run(cell):
        kind, mode, seed = cell
        try:
            return run_cell(kind, mode, seed, dataset, reconstructor_model,
                            configs=configs, use_raw_curves=use_raw_curves,
                            input_curves=inputs[seed])
        except Exception as exc:
            raise RuntimeError(f"comparison cell failed: kind={kind}, "
                               f"mode={mode}, seed={seed}: {exc}") from exc

    if jobs and jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run, cells))
    else:
        rows = [run(cell) for cell in cells]

    aggregates = []
    for kind in kinds:
        for mode in modes:
            values = [row.mean_r2 for row in rows
                      if row.kind == kind and row.domain_mode == mode]
            aggregates.append({"kind": kind, "domain_mode": mode,
                               "mean_r2_mean": float(np.mean(values)),
                               "mean_r2_min": float(np.min(values)),
                               "mean_r2_max": float(np.max(values))})
    digest = config_digest({k: asdict(configs[k]) if configs and k in configs
                            else asdict(default_config(k)) for k in kinds})
    return ComparisonTable(rows=rows, aggregates=aggregates, seeds=list(seeds),
                           config_digest=digest)


# ---------------------------------------------------------------------------
# Emission

def _report_json(report):
    return {"kind": report.kind, "domain_mode": report.domain_mode,
            "seed": report.seed, "config_digest": report.config_digest,
            "per_target_r2": report.per_target_r2, "mean_r2": report.mean_r2,
            "train_runtime_s": report.train_runtime_s,
            "predict_runtime_s": report.predict_runtime_s,
            "scatter": report.scatter}


def emit_report(report, path, fmt="json", include_runtimes=True):
    """Write one MetricsReport; deterministic bytes when runtimes are excluded."""
    if fmt == "json":
        obj = _report_json(report)
        if not include_runtimes:
            obj.pop("train_runtime_s")
            obj.pop("predict_runtime_s")
        dump_json(obj, path)
    elif fmt == "csv":
        _write_rows_csv([report], path, include_runtimes=include_runtimes)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _write_rows_csv(rows, path, include_runtimes=False):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["kind", "domain_mode", "seed",
                  "r2_m0", "r2_m1", "r2_m2", "r2_m3", "mean_r2"]
        if include_runtimes:
            header += ["train_runtime_s", "predict_runtime_s"]
        writer.writerow(header)
        for row in rows:
            record = [row.kind, row.domain_mode, row.seed]
            record += [repr(v) for v in row.per_target_r2]
            record.append(repr(row.mean_r2))
            if include_runtimes:
                record += [repr(row.train_runtime_s), repr(row.predict_runtime_s)]
            writer.writerow(record)


def emit_comparison(table, path, timings_path=None):
    """comparison.csv holds deterministic metric columns; wall-clock runtimes
    (non-reproducible by nature) go to the separate timings file."""
    _write_rows_csv(table.rows, path, include_runtimes=False)
    if timings_path:
        with open(timings_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "domain_mode", "seed",
                             "train_runtime_s", "predict_runtime_s"])
            for row in table.rows:
                writer.writerow([row.kind, row.domain_mode, row.seed,
                                 repr(row.train_runtime_s),
                                 repr(row.predict_runtime_s)])


def emit_aggregates(table, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "domain_mode", "mean_r2_mean",
                         "mean_r2_min", "mean_r2_max"])
        for agg in table.aggregates:
            writer.writerow([agg["kind"], agg["domain_mode"],
                             repr(agg["mean_r2_mean"]), repr(agg["mean_r2_min"]),
                             repr(agg["mean_r2_max"])])


def emit_scatter_data(report, out_dir, prefix=""):
    """Per-target scatter CSVs (actual, predicted), one row per test sample."""
    import os
    paths = []
    for name in TARGET_NAMES:
        path = os.path.join(out_dir, f"{prefix}scatter_{name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["actual", "predicted"])
            for a, p in report.scatter[name]:
                writer.writerow([repr(a), repr(p)])
        paths.append(path)
    return paths


def emit_reconstruction_examples(reconstructor_model, samples, out_dir,
                                 mask_seed=0, n_examples=5, prefix=""):
    """Per-example curve CSVs: strain, truth, masked_input, reconstruction.

    masked_input is empty exactly at masked positions.
    """
    import os
    rng = np.random.default_rng(mask_seed)
    fraction_range = reconstructor_model.config.mask_fraction_range
    chosen = rng.choice(len(samples), size=min(n_examples, len(samples)),
                        replace=False)
    paths = []
    for rank, idx in enumerate(chosen):
        sample = samples[int(idx)]
        masked = data.mask_curve(sample.curve, fraction_range, rng)
        recon = reconstruct(reconstructor_model, masked)
        path = os.path.join(out_dir, f"{prefix}example_{rank}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strain", "truth", "masked_input", "reconstruction"])
            for j, eps in enumerate(sample.curve.grid.points):
                observed = repr(float(masked.stress[j])) if masked.mask[j] else ""
                writer.writerow([repr(float(eps)),
                                 repr(float(sample.curve.stress[j])),
                                 observed,
                                 repr(float(recon.stress[j]))])
        paths.append(path)
    return paths
