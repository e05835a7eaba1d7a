#!/usr/bin/env python3
"""Reference figures for benchmarks/README.md. These are not workloads.

    python3 benchmarks/reference.py cells   # one default-config cell per family
    python3 benchmarks/reference.py jobs    # compare --jobs 1 vs 2, trees make-up
    python3 benchmarks/reference.py adam    # Adam step rate vs NumPy copy bandwidth

Each prints one JSON object. BLAS runs with one thread, as in the benchmark.
`cells` takes about six minutes; `adam` briefly holds two arrays of four
times the last-level cache each.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import run  # sets the BLAS thread variables before NumPy loads

import numpy as np

sys.path.insert(0, str(run.SRC))


def cells():
    """Training seconds of one with_function cell per family: seed 0, the
    default 600-sample dataset after the IQR filter, raw curves, default
    predictor configs (the ROADMAP baseline's set-up)."""
    from stressinv import data
    from stressinv.predictors import PREDICTOR_KINDS, train_predictor

    dataset, _, _ = data.iqr_filter(data.generate_synthetic(data.SyntheticConfig()))
    out = {}
    for kind in PREDICTOR_KINDS:
        trained = train_predictor(kind, dataset, None, "with_function", seed=0,
                                  use_raw_curves=True)
        out[kind] = trained.train_runtime_s
        print(f"{kind}: {trained.train_runtime_s:.2f} s", file=sys.stderr)
    return {"train_s": out}


def jobs():
    """Wall time of `compare` with --jobs 1 and --jobs 2 on the trees make-up."""
    config = run.workload_config("trees", 0)
    work = run.WORK / "reference-jobs"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(dict(config, run_dir="run")))
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = {}
    try:
        for step in run.STEPS[:4]:
            run.run_command(step, config_path, work, traced=False)
        for n in (1, 2) * 3:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "stressinv.cli", "compare",
                            "--config", str(config_path), "--jobs", str(n), "--force"],
                           cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
            out.setdefault(f"jobs_{n}_s", []).append(time.perf_counter() - start)
            digest = run.checks.digests(str(work / "run"))["reports/comparison.csv"]
            out.setdefault(f"jobs_{n}_digest", set()).add(digest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {k: sorted(v) if isinstance(v, set) else v for k, v in out.items()}


def _llc_bytes():
    path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    with open(path) as fh:
        text = fh.read().strip()
    scale = {"K": 1024, "M": 1024 ** 2}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def adam():
    """Adam steps on the default reconstructor's parameters, in bytes computed
    per second (7 arrays of parameter size per step), against np.copyto
    bandwidth (read + write) on arrays of at least four times the LLC."""
    from stressinv import data
    from stressinv.nnet import Adam
    from stressinv.reconstructor import ReconstructorConfig, build_network

    rng = np.random.default_rng(0)
    network = build_network(data.GRID_POINTS, ReconstructorConfig(), rng)
    params = network.parameters()
    for p in params:
        p.grad = rng.normal(size=p.data.shape)
    optimizer = Adam(params, lr=3e-4, weight_decay=1e-4)
    steps = 200
    start = time.perf_counter()
    for _ in range(steps):
        optimizer.step()
    adam_s = time.perf_counter() - start
    param_bytes = sum(p.data.nbytes for p in params)

    llc = _llc_bytes()
    n = 4 * llc // 8
    src = np.ones(n)
    dst = np.zeros(n)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    del src, dst
    return {"parameter_bytes": param_bytes, "steps": steps,
            "adam_step_ms": 1e3 * adam_s / steps,
            "adam_gbps_computed": 7 * param_bytes * steps / adam_s / 1e9,
            "llc_bytes": llc, "copy_array_bytes": 8 * n,
            "copy_gbps_best": 2 * 8 * n / min(times) / 1e9,
            "copy_gbps_median": 2 * 8 * n / sorted(times)[2] / 1e9}


if __name__ == "__main__":
    figures = {"cells": cells, "jobs": jobs, "adam": adam}[sys.argv[1]]()
    print(json.dumps(dict(figures, machine=run.machine()), indent=1))
