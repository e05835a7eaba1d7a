#!/usr/bin/env python3
"""Pipeline benchmark for stressinv.

    python3 benchmarks/run.py --workload recon --seed 0 --seconds 30 --trace 0

A run works in a fresh run directory. Set-up runs generate, preprocess and
fit-law once; then a cycle runs train-reconstruct (with --force after the
first), compare and REPORT_RUNS x report. Each command is its own process,
started when the previous one ended, with `--jobs 1` and one BLAS thread,
and is timed from outside. A run repeats whole cycles while the next one is
expected to end within `--seconds`; there is always at least one. The
workload seed is the synthetic dataset's seed and nothing else.

With `--trace 0` the run reports the end-to-end metrics: per command the
median of all its runs, and setup_s once, cold. With `--trace 1` it runs
one untraced round (set-up plus one cycle), then one round with every
command under benchmarks/tracer.py, and reports the per-layer metrics and
the tracing overhead (traced minus untraced pipeline_s).

Every cycle's artifacts are checked by benchmarks/checks.py; the run is
correct only if every check passes and the artifact digests agree with every
earlier run of the same workload and seed in this checkout. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. An
operation is one CLI command or one comparison cell. The full record
(machine, per-command figures, check results, spans) is written under
benchmarks/_out/.
"""

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
OUT = BENCH / "_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before NumPy loads, here and in every command

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

STEPS = ("generate", "preprocess", "fit-law", "train-reconstruct", "compare", "report")
SETUP = STEPS[:3]
# report takes half a second, and one run of it varies by +-15 %, so each
# cycle runs it twice and the run counts with the median of all its runs.
REPORT_RUNS = 2
CYCLE = ("train-reconstruct", "compare") + ("report",) * REPORT_RUNS
FORCED = {"train-reconstruct"}  # refuses to overwrite its outputs otherwise
# The machine is shared, and its speed moves within seconds and over minutes:
# the same command ran 1.6x slower from one run to the next, in CPU time as
# in wall time. So a fixed kernel is timed before every measured command and
# at the end, and the run's times are scaled to the speed at which the
# kernel takes SPEED_REF_S (its median on a quiet stretch of the reference
# machine).
SPEED_REF_S = 0.15

# The full config is written out, so a change of the program's defaults does
# not change the benchmark. Values are the defaults, except that the
# reconstructor holds out 40 % of the curves instead of 10 %: its held-out R^2
# over 60 curves moves by 10-15 % from one dataset seed to the next.
BASE = {
    "synthetic": {"n_samples": 600, "noise_std": 0.005},
    "reconstructor": {"hidden_widths": [1024, 512, 256, 128], "lr": 0.0003,
                      "weight_decay": 1e-4, "step_factor": 0.5,
                      "step_interval": 50, "batch_size": 32,
                      "mask_fraction_range": [0.2, 0.5],
                      "split_fractions": [0.5, 0.1, 0.4], "seed": 0},
    "comparison": {"modes": ["with_function", "without_function"]},
    "report_formats": ["json", "csv"],
}
# Scaled down so that one cycle takes 8-13 s and a 60-second run holds three
# to six. The neural epochs are the fewest at which every cell beat
# predicting the mean on every dataset seed tried. `recon` is not in
# BENCHMARK.json: a third workload left runs too short for steady medians on
# this machine. It is kept for manual runs, since stage-1 training and
# inference dominate it.
# early_patience above max_epochs keeps the epoch count independent of the data.
WORKLOADS = {
    "recon": {
        "reconstructor": {"epochs": 8, "step_interval": 4},
        "predictors": {"knn": {"k": 5}},
        "comparison": {"kinds": ["knn"], "seeds": [0, 1]},
    },
    "trees": {
        "reconstructor": {"epochs": 4},
        "predictors": {"random_forest": {"n_trees": 6, "max_depth": 16},
                       "gbt": {"n_rounds": 4, "max_depth": 4}},
        "comparison": {"kinds": ["random_forest", "gbt"], "seeds": [0]},
    },
    "neural": {
        "reconstructor": {"epochs": 4},
        "predictors": {
            "dnn": {"max_epochs": 2, "pretrain_epochs": 1, "early_patience": 1000},
            "cnn1d": {"max_epochs": 4, "early_patience": 1000},
            "lstm": {"max_epochs": 2, "early_patience": 1000},
        },
        "comparison": {"kinds": ["dnn", "cnn1d", "lstm"], "seeds": [0]},
    },
}
END_TO_END = {"setup_s": "s", "train_reconstruct_s": "s", "compare_s": "s",
              "report_s": "s", "pipeline_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "recon_r2": "1", "mean_r2": "1"}


def workload_config(name, seed):
    cfg = json.loads(json.dumps(BASE))
    for section, values in WORKLOADS[name].items():
        cfg.setdefault(section, {}).update(values)
    cfg["synthetic"]["seed"] = seed
    return cfg


def machine():
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "blas_threads_env": {v: os.environ[v] for v in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older NumPy has no dict mode
        info["blas"] = "unknown"
    return info


def run_command(step, config_path, run_dir, traced, force=False):
    """One CLI command in its own process: (exit code, wall s, cpu s, peak MB)."""
    cli = [step, "--config", str(config_path), "--jobs", "1"] + (["--force"] if force else [])
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"),
                str(run_dir / "trace" / f"{step}.json"), "--"] + cli
    else:
        argv = [sys.executable, "-m", "stressinv.cli"] + cli
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(run_dir / "logs" / f"{step}.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no command running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def n_cells(config):
    cmp = config["comparison"]
    return len(cmp["kinds"]) * len(cmp["modes"]) * len(cmp["seeds"])


def prepare(config, run_dir):
    """A fresh run directory holding the config; returns the config path."""
    shutil.rmtree(run_dir, ignore_errors=True)
    for sub in ("logs", "trace"):
        (run_dir / sub).mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(dict(config, run_dir="run"), indent=2))
    return config_path


_RNG = np.random.default_rng(0)
# Inputs and every buffer the kernel writes are made, and written, once: a
# fresh large array is mapped anew on each call until the allocator adapts,
# and untouched pages fault on first write, which made the first samples of
# a run 30-50 % slow.
_KERNEL = {"a": _RNG.standard_normal((64, 512)), "w": _RNG.standard_normal((512, 512)),
           "y": np.full((64, 512), 0.0), "g": _RNG.standard_normal(400_000),
           "p": np.full(400_000, 0.0), "m": np.full(400_000, 0.0),
           "v": np.full(400_000, 0.0), "t": np.full(400_000, 0.0)}


def speed_sample():
    """Seconds a fixed one-thread kernel takes now. It mixes the program's
    three kinds of work: small NumPy matmuls, an Adam-like pass over 3 MB
    arrays and a pure-Python loop."""
    k = _KERNEL
    a, w, y, g, p, m, v, t = (k[n] for n in "awygpmvt")
    start = time.perf_counter()
    for _ in range(20):
        for _ in range(6):
            np.matmul(a, w, out=y)
            np.tanh(y, out=y)
        m *= 0.9
        np.multiply(g, 0.1, out=t)
        m += t
        v *= 0.999
        np.multiply(g, g, out=t)
        t *= 0.001
        v += t
        np.sqrt(v, out=t)
        t += 1e-8
        np.divide(m, t, out=t)
        t *= 1e-3
        p -= t
        xs = sorted(((j * 7919) % 1000) / 1000.0 for j in range(6000))
        total = 0.0
        for x in xs:
            total += x * x
    return time.perf_counter() - start


def run_steps(steps, config, run_dir, traced, force=False, sample_speed=False):
    """Run commands one after the other, with a speed sample before each if
    asked. A failed command fails itself, every later command of `steps`
    and, if `compare` is among them, every cell."""
    config_path = run_dir / "config.json"
    cells = n_cells(config) if "compare" in steps else 0
    part = {"runs": [], "attempted": len(steps) + cells, "failed": 0}
    for i, step in enumerate(steps):
        speed = speed_sample() if sample_speed else None
        code, wall, cpu, rss = run_command(step, config_path, run_dir, traced,
                                           force and step in FORCED)
        part["runs"].append({"command": step, "exit": code, "wall_s": wall,
                             "cpu_s": cpu, "peak_rss_mb": rss, "speed_s": speed})
        if code != 0:
            part["failed"] = len(steps) - i + (cells if "compare" in steps[i:] else 0)
            log = (run_dir / "logs" / f"{step}.log").read_text(errors="replace")
            print(f"{step} exited {code}:\n{log[-2000:]}", file=sys.stderr)
            break
    return part


def run_cycle(config, run_dir, traced, force, sample_speed=False):
    """train-reconstruct, compare and REPORT_RUNS x report on the set-up run
    directory, then the checks. Returns the cycle's record."""
    cycle = run_steps(CYCLE, config, run_dir, traced, force, sample_speed)
    cycle["check_failures"] = []
    if cycle["failed"]:
        return cycle
    try:
        failures, facts = checks.check_run(str(run_dir / "run"), config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        failures, facts = [f"artifacts: unreadable ({exc!r})"], {}
    cycle["check_failures"] = failures
    cycle.update(facts)
    return cycle


def summarize(runs):
    """Per command the median of its runs; pipeline and CPU time as the sum
    of those medians, peak RSS as their maximum."""
    commands = {
        step: {key: statistics.median(r[key] for r in runs if r["command"] == step)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        for step in STEPS}
    return {"commands": commands,
            "pipeline_s": sum(c["wall_s"] for c in commands.values()),
            "cpu_s": sum(c["cpu_s"] for c in commands.values()),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in commands.values())}


def run_round(config, run_dir, traced):
    """Set-up plus one cycle in a fresh run directory: every command once
    (report REPORT_RUNS times). Returns the merged record."""
    prepare(config, run_dir)
    setup = run_steps(SETUP, config, run_dir, traced)
    if setup["failed"]:  # the cycle counts as attempted and failed
        cells = n_cells(config)
        return {"runs": setup["runs"], "attempted": setup["attempted"] + len(CYCLE) + cells,
                "failed": setup["failed"] + len(CYCLE) + cells, "check_failures": []}
    cycle = run_cycle(config, run_dir, traced, force=False)
    record = dict(cycle, runs=setup["runs"] + cycle["runs"],
                  attempted=setup["attempted"] + cycle["attempted"],
                  failed=cycle["failed"])
    if not record["failed"] and "digests" in record:
        record.update(summarize(record["runs"]))
    return record


def load_traces(run_dir):
    return {step: json.loads((run_dir / "trace" / f"{step}.json").read_text())
            for step in STEPS}


def version_key(config):
    """Digest of the config and the program source: a run is compared only
    with earlier runs of the same benchmark config and program."""
    h = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(key, parts):
    """Digests must agree across the parts of a run and with earlier runs of the same
    workload, seed and version in this checkout."""
    registry_path = OUT / "digests.json"
    registry = json.loads(registry_path.read_text()) if registry_path.exists() else {}
    seen = [p["digests"] for p in parts if "digests" in p]
    if not seen:
        return []
    expected = registry.setdefault(key, seen[0])
    failures = [f"determinism: {rel} digest {d[rel][:12]} != {expected[rel][:12]}"
                for d in seen for rel in expected if d.get(rel) != expected[rel]]
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=2, sort_keys=True))
    os.replace(tmp, registry_path)
    return failures


def at_reference_speed(parts, setup_end, speed_end):
    """The runs with wall and CPU time scaled to reference speed, and
    setup_s. One factor serves the whole run: SPEED_REF_S over the median of
    its speed samples. It follows drift over minutes; the median over the
    runs of each command deals with jitter within seconds."""
    runs = [r for p in parts for r in p["runs"]]
    samples = [r["speed_s"] for r in runs if r["speed_s"] is not None] + [speed_end]
    factor = SPEED_REF_S / statistics.median(samples)
    scaled = [dict(r, wall_s=r["wall_s"] * factor, cpu_s=r["cpu_s"] * factor)
              for r in runs]
    return scaled, (setup_end - T_START) * factor


def end_to_end_metrics(parts, setup_end, speed_end):
    runs, setup_s = at_reference_speed(parts, setup_end, speed_end)
    summary = summarize(runs)
    commands = summary["commands"]
    values = {
        "setup_s": setup_s,
        "train_reconstruct_s": commands["train-reconstruct"]["wall_s"],
        "compare_s": commands["compare"]["wall_s"],
        "report_s": commands["report"]["wall_s"],
        "pipeline_s": summary["pipeline_s"],
        "cpu_s": summary["cpu_s"],
        "peak_rss_mb": summary["peak_rss_mb"],
        "recon_r2": parts[1]["recon_r2"],
        "mean_r2": parts[1]["mean_r2"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def measure(config, run_dir, seconds):
    """Set-up once, then whole cycles while the next one is expected to end
    within `seconds` of the process's start; there is always one. Returns
    the parts (set-up first, then the cycles), when set-up ended and the
    last speed sample."""
    prepare(config, run_dir)
    parts = [run_steps(SETUP, config, run_dir, traced=False)]
    parts[0]["check_failures"] = []
    setup_end = time.perf_counter()
    if parts[0]["failed"]:  # the cycle counts as attempted and failed
        ops = len(CYCLE) + n_cells(config)
        parts.append({"runs": [], "attempted": ops, "failed": ops, "check_failures": []})
        return parts, setup_end, None
    while True:
        start = time.perf_counter()
        parts.append(run_cycle(config, run_dir, traced=False, force=len(parts) > 1,
                               sample_speed=True))
        took = time.perf_counter() - start
        # a cycle can take a fifth longer than the one before it
        if parts[-1]["failed"] or time.perf_counter() - T_START + 1.2 * took > seconds:
            return parts, setup_end, speed_sample()


def per_layer_metrics(untraced, traced, traces):
    metrics = {}
    for step in STEPS:
        cmd = untraced["commands"][step]
        metrics[f"cli.{step}.cpu_s"] = (cmd["cpu_s"], "s")
        metrics[f"cli.{step}.peak_rss_mb"] = (cmd["peak_rss_mb"], "MB")
    metrics.update(tracer.layer_metrics(traces))
    metrics["trace.pipeline_s"] = (traced["pipeline_s"], "s")
    metrics["trace.overhead_s"] = (traced["pipeline_s"] - untraced["pipeline_s"], "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stressinv" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'stressinv'}", file=sys.stderr)
        return 2

    config = workload_config(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    parts, traces, setup_end, speed_end = [], None, None, None
    try:
        if args.trace:
            parts.append(run_round(config, run_dir, traced=False))
            if not parts[-1]["failed"]:
                parts.append(run_round(config, run_dir, traced=True))
            if len(parts) == 2 and not parts[-1]["failed"]:
                traces = load_traces(run_dir)
        else:
            parts, setup_end, speed_end = measure(config, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    failures = [f for p in parts for f in p["check_failures"]]
    failures += check_digests(f"{args.workload}/{args.seed}/{version_key(config)}", parts)
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    metrics = {}
    if args.trace and traces and all("pipeline_s" in p for p in parts):
        metrics = per_layer_metrics(parts[0], parts[1], traces)
    elif not args.trace and failed == 0 and all("digests" in p for p in parts[1:]):
        metrics = end_to_end_metrics(parts, setup_end, speed_end)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine(), "config": config, "parts": parts,
              "speed_ref_s": SPEED_REF_S, "speed_end_s": speed_end,
              "check_failures": failures, "metrics": metrics}
    if traces:
        record["trace_summary"] = tracer.command_summary(traces)
        (OUT / f"spans_{tag}.json").write_text(json.dumps(traces))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
