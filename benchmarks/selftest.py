#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks and tracer.

    python3 benchmarks/selftest.py

Runs a tiny pipeline (small reconstructor, kNN only) untraced and traced,
shows every check passing on the real artifacts, then shows the matching
check failing on three perturbed copies: one changed scatter value, one
changed strength-law alpha, one overwritten observed point of a
reconstruction example. Exits 0 when all of that holds, in a few seconds.
"""

import csv
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread variables before NumPy loads
import checks
import tracer

TINY = {
    "synthetic": {"n_samples": 300, "noise_std": 0.005, "seed": 7},
    "reconstructor": dict(run.BASE["reconstructor"], hidden_widths=[64, 32],
                          epochs=4, step_interval=2),
    "predictors": {"knn": {"k": 5}},
    "comparison": {"kinds": ["knn"], "modes": ["with_function", "without_function"],
                   "seeds": [0]},
    "report_formats": ["json", "csv"],
}


def _edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _scatter(run_dir):
    def edit(rows):
        rows[1][1] = repr(float(rows[1][1]) + 0.125)
    _edit_csv(run_dir / "plots/knn_with_function_seed0_scatter_m1.csv", edit)


def _alpha(run_dir):
    path = run_dir / "reports/strength_law.json"
    law = json.loads(path.read_text())
    law["alpha"][1] += 1e-6
    path.write_text(json.dumps(law))


def _observed_point(run_dir):
    def edit(rows):
        row = next(r for r in rows[1:] if r[2] != "")
        row[3] = repr(float(row[3]) * (1 + 1e-9))
    _edit_csv(run_dir / "plots/example_0.csv", edit)


PERTURBATIONS = [("changed scatter value", _scatter, "comparison.r2"),
                 ("changed alpha", _alpha, "strength_law.lstsq"),
                 ("overwritten observed point", _observed_point, "examples.observed")]


def main():
    problems = []
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        record = run.run_round(TINY, work / "plain", traced=False)
        if record["failed"] or record["check_failures"]:
            problems.append(f"real artifacts: {record['check_failures']}")
        else:
            print(f"pass: every check holds on the real artifacts "
                  f"(mean R^2 {record['mean_r2']:.3f})")
        for label, perturb, expected in PERTURBATIONS:
            copy = work / label.replace(" ", "_")
            shutil.copytree(work / "plain" / "run", copy)
            perturb(copy)
            failures, _ = checks.check_run(str(copy), TINY)
            if any(f.startswith(expected) for f in failures):
                print(f"pass: {label} -> {expected} fails")
            else:
                problems.append(f"{label}: {expected} did not fail ({failures})")

        traced = run.run_round(TINY, work / "traced", traced=True)
        metrics = tracer.layer_metrics(run.load_traces(work / "traced"))
        if traced["digests"] != record["digests"]:
            problems.append("tracing changed the artifact digests")
        rcfg = TINY["reconstructor"]
        n_train = int(TINY["synthetic"]["n_samples"] * rcfg["split_fractions"][0])
        batches = math.ceil(n_train / rcfg["batch_size"])
        expected_counts = {"evaluation.cells": 2, "reconstructor.epochs": rcfg["epochs"],
                           "predictors.build_inputs.calls_per_seed": 2,
                           "train-reconstruct.nnet.adam_step.calls": rcfg["epochs"] * batches}
        for name, value in expected_counts.items():
            if metrics[name][0] != value:
                problems.append(f"trace: {name} = {metrics[name][0]}, expected {value}")
        if not problems:
            print("pass: traced round has the same digests and the expected counts")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
