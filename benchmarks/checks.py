"""Correctness checks on a pipeline run directory.

Every check recomputes its expectation from the artifacts with plain csv,
json and NumPy code, apart from the program under test, and every check can
fail. `check_run` returns the failed check messages plus the facts the
benchmark reports (the recomputed mean R^2 and the artifact digests).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

TARGETS = ("m0", "m1", "m2", "m3")
R2_RTOL = 1e-9
ALPHA_RTOL = 1e-9
# The peak of a noisy curve is biased upwards, which moves the fitted alpha0
# by about 0.03 at noise_std 0.005 (seeds 0-11); 20 noise widths leaves room.
PLANTED_TOL_PER_NOISE = 20.0
DIGESTED = ("reports/comparison.csv", "checkpoints/reconstructor.json")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _samples(path):
    """id -> (m0..m3) from a samples.csv, in file order."""
    _, rows = _rows(path)
    return {row[0]: tuple(float(v) for v in row[1:5]) for row in rows}


def _curves(path):
    """id -> stress array from a wide curves.csv."""
    _, rows = _rows(path)
    return {row[0]: np.array([float(v) for v in row[1:]]) for row in rows}


def _quantile(sorted_values, q):
    """Linear interpolation between order statistics."""
    h = (len(sorted_values) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def _r2(actual, predicted):
    a = np.asarray(actual)
    p = np.asarray(predicted)
    return 1.0 - float(((a - p) ** 2).sum()) / float(((a - a.mean()) ** 2).sum())


def _close(x, y, rtol):
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def check_strength_law(run, config, raw_manifest):
    samples = _samples(os.path.join(run, "data/clean/samples.csv"))
    curves = _curves(os.path.join(run, "data/clean/curves.csv"))
    m = np.array(list(samples.values()))
    log_peak = np.log([curves[i].max() for i in samples])
    alpha_ref = np.linalg.lstsq(m, log_peak, rcond=None)[0]
    alpha = _json(os.path.join(run, "reports/strength_law.json"))["alpha"]
    failures = []
    if not all(_close(a, b, ALPHA_RTOL) for a, b in zip(alpha, alpha_ref)):
        failures.append(f"strength_law.lstsq: alpha {alpha} != lstsq fit "
                        f"{alpha_ref.tolist()}")
    tol = PLANTED_TOL_PER_NOISE * config["synthetic"].get("noise_std", 0.005)
    planted = raw_manifest["planted_alpha"]
    if max(abs(a - p) for a, p in zip(alpha, planted)) > tol:
        failures.append(f"strength_law.planted: alpha {alpha} is more than {tol} "
                        f"from planted {planted}")
    return failures


def check_preprocess(run):
    raw = _samples(os.path.join(run, "data/samples.csv"))
    m = np.array(list(raw.values()))
    outside = np.zeros(len(raw), dtype=bool)
    for j in range(4):
        col = sorted(m[:, j])
        q1, q3 = _quantile(col, 0.25), _quantile(col, 0.75)
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        outside |= (m[:, j] < lo) | (m[:, j] > hi)
    expected = [sid for sid, out in zip(raw, outside) if out]
    report = _json(os.path.join(run, "data/clean/filter_report.json"))
    kept = list(_samples(os.path.join(run, "data/clean/samples.csv")))
    failures = []
    if report["dropped_ids"] != expected:
        failures.append(f"preprocess.dropped: {report['dropped_ids']} != "
                        f"recomputed {expected}")
    if kept != [sid for sid in raw if sid not in set(expected)]:
        failures.append("preprocess.kept: clean ids are not the raw ids "
                        "minus the dropped ones")
    return failures


def check_history(run, rcfg):
    _, rows = _rows(os.path.join(run, "checkpoints/history.csv"))
    failures = []
    if [int(r[0]) for r in rows] != list(range(1, rcfg["epochs"] + 1)):
        failures.append(f"history.epochs: {len(rows)} rows for "
                        f"{rcfg['epochs']} configured epochs")
    for r in rows:
        e = int(r[0])
        lr = rcfg["lr"] * rcfg["step_factor"] ** ((e - 1) // rcfg["step_interval"])
        if not _close(float(r[3]), lr, 1e-12):
            failures.append(f"history.lr: epoch {e} lr {r[3]} != step decay {lr}")
            break
        if not (math.isfinite(float(r[1])) and math.isfinite(float(r[2]))):
            failures.append(f"history.finite: epoch {e} has a non-finite loss")
            break
    return failures


def check_examples(run, rcfg, n_examples=5):
    curves = {tuple(c) for c in _curves(os.path.join(run, "data/clean/curves.csv")).values()}
    lo, hi = rcfg["mask_fraction_range"]
    failures = []
    for rank in range(n_examples):
        path = os.path.join(run, f"plots/example_{rank}.csv")
        if not os.path.exists(path):
            failures.append(f"examples.present: missing {path}")
            continue
        name = os.path.basename(path)
        _, rows = _rows(path)
        hidden = np.flatnonzero([r[2] == "" for r in rows])
        if hidden.size == 0 or np.any(np.diff(hidden) != 1):
            failures.append(f"examples.window: {name} mask is not one contiguous run")
        elif not lo - 1e-12 <= hidden.size / len(rows) <= hi + 1e-12:
            failures.append(f"examples.fraction: {name} masks {hidden.size} of "
                            f"{len(rows)} points, outside {lo}..{hi}")
        if any(r[2] != "" and not r[1] == r[2] == r[3] for r in rows):
            failures.append(f"examples.observed: {name} differs from the truth "
                            "at an observed point")
        values = [float(v) for r in rows for v in r if v != ""]
        if not all(math.isfinite(v) for v in values):
            failures.append(f"examples.finite: {name} holds a non-finite value")
        if tuple(float(r[1]) for r in rows) not in curves:
            failures.append(f"examples.truth: {name} truth is not a clean curve")
    return failures


def check_comparison(run, comparison):
    """Returns (failures, cell name -> recomputed mean R^2)."""
    clean = np.array(list(_samples(os.path.join(run, "data/clean/samples.csv")).values()))
    m_values = [set(clean[:, j].tolist()) for j in range(4)]
    _, rows = _rows(os.path.join(run, "reports/comparison.csv"))
    cells = [(r[0], r[1], int(r[2])) for r in rows]
    expected = [(k, m, s) for k in comparison["kinds"] for m in comparison["modes"]
                for s in comparison["seeds"]]
    failures = []
    if sorted(cells) != sorted(expected):
        failures.append(f"comparison.cells: rows {cells} != grid {expected}")
    cell_means = {}
    for r in rows:
        name = f"{r[0]}_{r[1]}_seed{r[2]}"
        reported = [float(v) for v in r[3:8]]
        r2s = []
        for j, target in enumerate(TARGETS):
            _, pairs = _rows(os.path.join(run, f"plots/{name}_scatter_{target}.csv"))
            actual = [float(p[0]) for p in pairs]
            r2s.append(_r2(actual, [float(p[1]) for p in pairs]))
            if not set(actual) <= m_values[j]:
                failures.append(f"comparison.actual: {name} {target} holds a value "
                                "that is no clean sample's")
        if not all(_close(a, b, R2_RTOL) for a, b in zip(r2s, reported[:4])):
            failures.append(f"comparison.r2: {name} reports {reported[:4]}, "
                            f"scatter gives {r2s}")
        if not _close(reported[4], sum(reported[:4]) / 4, 1e-12):
            failures.append(f"comparison.mean: {name} mean_r2 {reported[4]} is not "
                            "the mean of its four R^2")
        cell_mean = sum(r2s) / 4
        if not cell_mean > 0.0:
            failures.append(f"comparison.skill: {name} mean R^2 {cell_mean} <= 0")
        cell_means[name] = cell_mean
    return failures, cell_means


def digests(run):
    out = {}
    for rel in DIGESTED:
        with open(os.path.join(run, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_run(run, config):
    """All checks on a finished run. Returns (failures, facts)."""
    raw_manifest = _json(os.path.join(run, "data/dataset_manifest.json"))
    rcfg = config["reconstructor"]
    failures = (check_strength_law(run, config, raw_manifest)
                + check_preprocess(run)
                + check_history(run, rcfg)
                + check_examples(run, rcfg))
    cmp_failures, cell_r2 = check_comparison(run, config["comparison"])
    failures += cmp_failures
    recon_r2 = _json(os.path.join(run, "reports/reconstruction_eval.json"))["test_r2"]
    mean_r2 = sum(cell_r2.values()) / len(cell_r2) if cell_r2 else float("nan")
    return failures, {"mean_r2": mean_r2, "recon_r2": recon_r2, "cell_r2": cell_r2,
                      "digests": digests(run)}
