"""Traced launcher and per-layer metrics.

    python3 benchmarks/tracer.py SPANS.json -- <stressinv CLI arguments>

runs one CLI command in this process with a span around every call to the
public functions of each module: a span is (name, start, end, parent). The
wrappers are installed on the imported modules and classes only, so the
program's files are unchanged. Spans and counts stay in memory and are
written to SPANS.json when the command ends. Spans assume one thread, so a
traced `compare` runs with `--jobs 1`.

`layer_metrics` turns the span files of one traced pipeline into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

NNET_LAYERS = ("Linear", "LayerNorm", "BatchNorm", "Dropout", "Conv1d",
               "MaxPool1d", "LSTM")
KINDS = ("dnn", "cnn1d", "lstm", "knn", "random_forest", "gbt")
NNET_COMMANDS = ("train-reconstruct", "compare")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, after=None):
        """`name` is a string or a function of the call's (args, kwargs)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args, kwargs),
                    clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced


def _replace_everywhere(original, replacement):
    """Rebind every `from x import f` copy of a function in the package."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("stressinv"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _tree_nodes(node):
    return 1 if node.is_leaf else 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def install(tracer):
    from stressinv import data, evaluation, reconstructor, strength
    from stressinv.nnet import layers, optim, serialize, tensor
    from stressinv.predictors import api, neighbors, neural, trees

    def fn(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def adam_bytes(args, kwargs, result):
        # each step reads p, g, m, v and writes p, m, v
        tracer.count("nnet.adam_step.bytes", 7 * sum(p.data.nbytes for p in args[0].params))

    for attr in ("generate_synthetic", "save_dataset", "load_dataset", "mask_curve"):
        fn(data, attr, f"data.{attr}")
    fn(strength, "fit", "strength.fit")
    fn(reconstructor, "train_reconstructor", "reconstructor.train",
       lambda a, k, r: tracer.count("reconstructor.epochs", len(r[1])))
    fn(reconstructor, "reconstruct", "reconstructor.reconstruct")
    fn(serialize, "save_checkpoint", "serialize.save_checkpoint",
       lambda a, k, r: tracer.count("serialize.checkpoint_bytes", os.path.getsize(a[0])))
    fn(serialize, "load_checkpoint", "serialize.load_checkpoint")
    fn(api, "build_inputs", "predictors.build_inputs",
       lambda a, k, r: tracer.count(f"predictors.build_inputs.seed.{a[2]}"))
    fn(api, "train_predictor",
       lambda a, k: f"predictors.train.{k.get('kind', a[0] if a else None)}")
    fn(neural, "train_network", "predictors.train_network",
       lambda a, k, r: tracer.count("predictors.train_network.epochs", len(r)))
    fn(evaluation, "evaluate_predictor", "evaluation.evaluate_predictor")
    for attr in ("emit_comparison", "emit_aggregates", "emit_report", "emit_scatter_data"):
        fn(evaluation, attr, "evaluation.emit")
    method(optim.Adam, "step", "nnet.adam_step", adam_bytes)
    method(tensor.Tensor, "backward", "nnet.backward")
    for layer in NNET_LAYERS:
        method(getattr(layers, layer), "forward", f"nnet.forward.{layer}")
    method(trees.RegressionTree, "fit", "predictors.trees.fit",
           lambda a, k, r: tracer.count("predictors.trees.nodes", _tree_nodes(r.root)))
    method(neighbors.KNNRegressor, "predict", "predictors.knn.predict")


def main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <stressinv CLI arguments>")
    from stressinv import cli

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap(f"cli.{cli_args[0]}", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"command": cli_args[0], "spans": tracer.spans,
                       "counts": tracer.counts}, fh)


# ---------------------------------------------------------------------------
# Per-layer metrics from span files


def summarize(spans):
    """name -> [calls, inclusive seconds, self seconds] for one command."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out


def train_seconds_by_kind(spans):
    """Inclusive train_predictor time minus its build_inputs children."""
    inputs = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if name == "predictors.build_inputs" and parent >= 0:
            inputs[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if name.startswith("predictors.train."):
            out[name] = out.get(name, 0.0) + end - start - inputs[i]
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traces):
    """traces: command -> loaded span file. Returns name -> (value, unit)."""
    per_cmd = {cmd: summarize(t["spans"]) for cmd, t in traces.items()}
    counts = {}
    for t in traces.values():
        for key, n in t["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def total(name, col, cmds=None):
        return sum(s.get(name, (0, 0.0, 0.0))[col] for c, s in per_cmd.items()
                   if cmds is None or c in cmds)

    def calls(name, cmds=None):
        return total(name, 0, cmds)

    def secs(name, cmds=None):
        return total(name, 1, cmds)

    m = {}
    for name in ("generate_synthetic", "save_dataset", "load_dataset"):
        m[f"data.{name}.s"] = (secs(f"data.{name}"), "s")
    m["data.load_dataset.calls"] = (calls("data.load_dataset"), "count")
    m["data.mask_curve.calls"] = (calls("data.mask_curve"), "count")
    m["data.mask_curve.s"] = (secs("data.mask_curve"), "s")
    m["strength.fit.calls"] = (calls("strength.fit"), "count")
    m["strength.fit.s"] = (secs("strength.fit"), "s")

    train_s, epochs = secs("reconstructor.train"), counts.get("reconstructor.epochs", 0)
    rec_calls, rec_s = calls("reconstructor.reconstruct"), secs("reconstructor.reconstruct")
    m["reconstructor.train.s"] = (train_s, "s")
    m["reconstructor.epochs"] = (epochs, "count")
    m["reconstructor.s_per_epoch"] = (_ratio(train_s, epochs), "s")
    m["reconstructor.reconstruct.calls"] = (rec_calls, "count")
    m["reconstructor.reconstruct.s"] = (rec_s, "s")
    m["reconstructor.curves_per_s"] = (_ratio(rec_calls, rec_s), "1/s")

    for cmd in NNET_COMMANDS:
        t = traces.get(cmd, {"counts": {}})
        adam_s = secs("nnet.adam_step", [cmd])
        adam_bytes = t["counts"].get("nnet.adam_step.bytes", 0)
        p = f"{cmd}.nnet."
        m[p + "adam_step.calls"] = (calls("nnet.adam_step", [cmd]), "count")
        m[p + "adam_step.s"] = (adam_s, "s")
        m[p + "adam_step.bytes_computed"] = (adam_bytes, "B")
        m[p + "adam_step.gbps_computed"] = (_ratio(adam_bytes, adam_s) / 1e9, "GB/s")
        m[p + "backward.calls"] = (calls("nnet.backward", [cmd]), "count")
        m[p + "backward.s"] = (secs("nnet.backward", [cmd]), "s")
        for layer in NNET_LAYERS:
            m[p + f"forward.{layer}.s"] = (total(f"nnet.forward.{layer}", 2, [cmd]), "s")

    m["serialize.save_checkpoint.s"] = (secs("serialize.save_checkpoint"), "s")
    m["serialize.checkpoint_bytes"] = (counts.get("serialize.checkpoint_bytes", 0), "B")
    m["serialize.load_checkpoint.calls"] = (calls("serialize.load_checkpoint"), "count")
    m["serialize.load_checkpoint.s"] = (secs("serialize.load_checkpoint"), "s")

    seeds = [k for k in counts if k.startswith("predictors.build_inputs.seed.")]
    bi_calls = calls("predictors.build_inputs")
    m["predictors.build_inputs.calls"] = (bi_calls, "count")
    m["predictors.build_inputs.calls_per_seed"] = (_ratio(bi_calls, len(seeds)), "1")
    m["predictors.build_inputs.s"] = (secs("predictors.build_inputs"), "s")
    by_kind = {}
    for t in traces.values():
        for name, s in train_seconds_by_kind(t["spans"]).items():
            by_kind[name] = by_kind.get(name, 0.0) + s
    for kind in KINDS:
        m[f"predictors.train.{kind}.s"] = (by_kind.get(f"predictors.train.{kind}", 0.0), "s")
    tn_s, tn_epochs = secs("predictors.train_network"), counts.get("predictors.train_network.epochs", 0)
    m["predictors.train_network.epochs"] = (tn_epochs, "count")
    m["predictors.train_network.s_per_epoch"] = (_ratio(tn_s, tn_epochs), "s")
    tree_s, nodes = secs("predictors.trees.fit"), counts.get("predictors.trees.nodes", 0)
    m["predictors.trees.trees_fitted"] = (calls("predictors.trees.fit"), "count")
    m["predictors.trees.nodes"] = (nodes, "count")
    m["predictors.trees.nodes_per_s"] = (_ratio(nodes, tree_s), "1/s")
    m["predictors.knn.predict.s"] = (secs("predictors.knn.predict"), "s")

    m["evaluation.cells"] = (calls("evaluation.evaluate_predictor"), "count")
    m["evaluation.evaluate_predictor.s"] = (secs("evaluation.evaluate_predictor"), "s")
    m["evaluation.emit.s"] = (secs("evaluation.emit"), "s")
    return m


def command_summary(traces):
    """command -> {span name: {calls, s, self_s}}, for the written trace."""
    return {cmd: {name: {"calls": c, "s": s, "self_s": self_s}
                  for name, (c, s, self_s) in sorted(summarize(t["spans"]).items())}
            for cmd, t in traces.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
