"""Span tracing installed from outside the program.

``install`` replaces public wavlab functions and methods with wrappers that
time each call. Spans nest: a span's self time is its duration minus the
durations of the spans opened inside it. Nothing is stored per call; each
span name keeps running sums of calls and self seconds, plus any counts its
hook adds, so hot functions (``theory.ols_fit``, ``gridworld.step``) cost a
few dictionary updates per call.

A wrapper is bound under every name a loaded ``wavlab`` module uses for the
wrapped object (``verify`` imports ``train_idm`` by name, ``cli`` calls
``datasets.load`` through the module), so callers reach it whichever way they
import. A target that no longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.active = False  # wrappers record only inside a root span
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self seconds
        self.counts: dict[str, float] = defaultdict(float)
        self.open: list[str] = []  # names of the open spans, innermost last
        self._children: list[float] = []  # child seconds of each open span
        self.last_oracle_ref = None

    def _close(self, label: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        inner = self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        entry = self.spans[label]
        entry[0] += 1
        entry[1] += elapsed - inner

    def wrap(self, fn, name, hook=None):
        """Time ``fn`` under ``name``; a callable ``name(tracer, arguments)``
        picks it per call (None means the call gets no span of its own)."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = None
            label = name
            if callable(name) or hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if callable(name):
                    label = name(self, bound.arguments)
                    if label is None:
                        return fn(*args, **kwargs)
            self._children.append(0.0)
            self.open.append(label)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.open.pop()
                self._close(label, started)
            if hook is not None:
                hook(self, label, result, bound.arguments)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """The span enclosing one phase of an iteration."""
        self.active = True
        self._children.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, started)
            self.active = False


def _rebind(old, new) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("wavlab"):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer, targets) -> list[str]:
    """Wrap each ``(module, "func" or "Class.method", layers, name, hook)``.

    ``layers`` are the metric prefixes the target feeds; ``name`` is the span
    name (None: the first layer). Returns the layers of every target that
    could not be found.
    """
    missing = []
    for module_name, attr, layers, name, hook in targets:
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        owner_name, _, method = attr.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(module, owner_name, None)
        original = None if owner is None else vars(owner).get(method)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            missing.extend(layers)
            continue
        wrapper = tracer.wrap(original, name or layers[0], hook)
        if owner_name:
            setattr(owner, method, wrapper)
        else:
            _rebind(original, wrapper)
    return missing


# ---------------------------------------------------------------------------
# Hooks: counts recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _count(key, fn):
    def hook(tracer, label, result, args):
        tracer.counts[key] += fn(result, args)
    return hook


def _file_bytes(arg):
    return lambda result, args: os.path.getsize(args[arg])


def _split_records(split) -> int:
    return len(split.seed_labeled) + len(split.pool) + len(split.test) + len(split.video)


def _idm_kind(tracer, args):
    return "models.train_idm.sparse" if args["sparsity_weight"] > 0 else "models.train_idm.vanilla"


def _idm_minibatches(tracer, label, result, args):
    from wavlab.models import DEFAULT_IDM_HYPER

    hyper = args["hyper"] or DEFAULT_IDM_HYPER
    tracer.counts[label + ".minibatches"] += hyper.epochs * math.ceil(
        len(args["data"]) / hyper.batch_size
    )


def _oracle_ref_or_none(tracer, args):
    # run_exploration calls baseline_scores("oracle") itself for the rank
    # reference; calls made while scoring belong to the score span.
    if args["strategy"] != "oracle" or "verify.score" in tracer.open:
        return None
    return "verify.oracle_ref"


def _keep_oracle_ref(tracer, label, result, args):
    tracer.last_oracle_ref = result


def _pick_overlap(select_top):
    def hook(tracer, label, picks, args):
        scores = args["scores"]
        if not scores or select_top is None or tracer.last_oracle_ref is None:
            return
        oracle_top = set(select_top(tracer.last_oracle_ref, args["budget"]))
        key = f"verify.pick_oracle_overlap.{scores[0].strategy}"
        tracer.counts[key + ".useful"] += len(oracle_top.intersection(picks))
        tracer.counts[key + ".attempts"] += len(picks)
    return hook


def _manifest_bytes(result, args):
    manifest = json.loads((Path(result) / "manifest.json").read_text(encoding="utf-8"))
    return sum(entry["bytes"] for entry in manifest["files"].values())


def targets():
    """Every wrapped layer boundary, grouped by module."""
    import wavlab.verify

    collected = _count("datasets.collect.transitions", lambda r, a: len(r))
    return [
        ("wavlab.gridworld", "step", ("gridworld.step",), None, None),
        ("wavlab.gridworld", "Encoder.encode", ("gridworld.encode",), None, None),
        ("wavlab.gridworld", "Encoder.decode", ("gridworld.decode",), None, None),
        ("wavlab.tasks", "TaskPolicy.next_action", ("tasks.policy",), None, None),
        ("wavlab.datasets", "collect_task_play", ("datasets.collect",), None, collected),
        ("wavlab.datasets", "collect_random_play", ("datasets.collect",), None, collected),
        ("wavlab.datasets", "build_split", ("datasets.build_split",), None, None),
        ("wavlab.datasets", "save", ("datasets.save",), None,
         _count("datasets.save.bytes", _file_bytes("path"))),
        ("wavlab.datasets", "load", ("datasets.load",), None,
         _count("datasets.load.records", lambda r, a: _split_records(r))),
        ("wavlab.models", "train_world_model", ("models.train_world_model",), None,
         _count("models.train_world_model.rows", lambda r, a: len(a["data"]))),
        ("wavlab.models", "train_idm", ("models.train_idm",), _idm_kind, _idm_minibatches),
        ("wavlab.models", "train_ensemble", ("models.train_ensemble",), None, None),
        ("wavlab.models", "save_model", ("models.save_model",), None,
         _count("models.save_model.bytes", _file_bytes("path"))),
        ("wavlab.verify", "run_exploration", ("verify.run_exploration",), None, None),
        ("wavlab.verify", "_strategy_scores", ("verify.score",), None, None),
        ("wavlab.verify", "baseline_scores",
         ("verify.oracle_ref", "verify.pick_oracle_overlap"),
         _oracle_ref_or_none, _keep_oracle_ref),
        ("wavlab.verify", "select_top", ("verify.select_top", "verify.pick_oracle_overlap"),
         None, _pick_overlap(getattr(wavlab.verify, "select_top", None))),
        ("wavlab.metrics", "prediction_loss", ("metrics.prediction_loss",), None, None),
        ("wavlab.metrics", "dynamics_accuracy", ("metrics.dynamics_accuracy",), None, None),
        ("wavlab.metrics", "spearman", ("metrics.rank",), None, None),
        ("wavlab.metrics", "kendall", ("metrics.rank",), None, None),
        ("wavlab.theory", "ols_fit", ("theory.ols_fit",), None, None),
        ("wavlab.theory", "lemma_excess_risk", ("theory.lemma",), None, None),
        ("wavlab.theory", "measure_gap", ("theory.measure_gap",), None, None),
        ("wavlab.tlcm", "tlcm_demo", ("tlcm.demo",), None, None),
        ("wavlab.cli", "RunDir.finish", ("cli.manifest",), None,
         _count("cli.manifest.bytes", _manifest_bytes)),
        ("wavlab.cli", "cmd_gen_data", ("cli.command",), None, None),
        ("wavlab.cli", "cmd_explore", ("cli.command",), None, None),
        ("wavlab.cli", "cmd_theory", ("cli.command",), None, None),
        ("wavlab.cli", "cmd_tlcm_demo", ("cli.command",), None, None),
    ]


# Per-layer metrics as BENCHMARK.json lists them: name -> (unit, how to read
# it from a finished tracer). Layers a workload does not reach read 0.
def _calls(span):
    return lambda t: t.spans[span][0] if span in t.spans else 0


def _self(span):
    return lambda t: t.spans[span][1] if span in t.spans else 0.0


def _counted(key):
    return lambda t: t.counts.get(key, 0)


def _ratio(key):
    def read(t):
        attempts = t.counts.get(key + ".attempts", 0)
        return t.counts.get(key + ".useful", 0) / attempts if attempts else 0.0
    return read


LAYER_METRICS = {
    "gridworld.step.calls": ("count", _calls("gridworld.step")),
    "gridworld.step.self_s": ("s", _self("gridworld.step")),
    "gridworld.encode.calls": ("count", _calls("gridworld.encode")),
    "gridworld.encode.self_s": ("s", _self("gridworld.encode")),
    "gridworld.decode.calls": ("count", _calls("gridworld.decode")),
    "gridworld.decode.self_s": ("s", _self("gridworld.decode")),
    "tasks.policy.self_s": ("s", _self("tasks.policy")),
    "datasets.collect.transitions": ("count", _counted("datasets.collect.transitions")),
    "datasets.collect.self_s": ("s", _self("datasets.collect")),
    "datasets.build_split.self_s": ("s", _self("datasets.build_split")),
    "datasets.save.bytes": ("bytes", _counted("datasets.save.bytes")),
    "datasets.save.self_s": ("s", _self("datasets.save")),
    "datasets.load.calls": ("count", _calls("datasets.load")),
    "datasets.load.records": ("count", _counted("datasets.load.records")),
    "datasets.load.self_s": ("s", _self("datasets.load")),
    "models.train_world_model.calls": ("count", _calls("models.train_world_model")),
    "models.train_world_model.rows": ("count", _counted("models.train_world_model.rows")),
    "models.train_world_model.self_s": ("s", _self("models.train_world_model")),
    "models.train_idm.sparse.calls": ("count", _calls("models.train_idm.sparse")),
    "models.train_idm.sparse.minibatches": (
        "count", _counted("models.train_idm.sparse.minibatches")),
    "models.train_idm.sparse.self_s": ("s", _self("models.train_idm.sparse")),
    "models.train_idm.vanilla.calls": ("count", _calls("models.train_idm.vanilla")),
    "models.train_idm.vanilla.minibatches": (
        "count", _counted("models.train_idm.vanilla.minibatches")),
    "models.train_idm.vanilla.self_s": ("s", _self("models.train_idm.vanilla")),
    "models.train_ensemble.self_s": ("s", _self("models.train_ensemble")),
    "models.save_model.calls": ("count", _calls("models.save_model")),
    "models.save_model.bytes": ("bytes", _counted("models.save_model.bytes")),
    "models.save_model.self_s": ("s", _self("models.save_model")),
    "verify.run_exploration.self_s": ("s", _self("verify.run_exploration")),
    "verify.score.self_s": ("s", _self("verify.score")),
    "verify.oracle_ref.self_s": ("s", _self("verify.oracle_ref")),
    "verify.select_top.self_s": ("s", _self("verify.select_top")),
    "verify.pick_oracle_overlap.wav-sparse": (
        "ratio", _ratio("verify.pick_oracle_overlap.wav-sparse")),
    "metrics.prediction_loss.self_s": ("s", _self("metrics.prediction_loss")),
    "metrics.dynamics_accuracy.self_s": ("s", _self("metrics.dynamics_accuracy")),
    "metrics.rank.self_s": ("s", _self("metrics.rank")),
    "theory.ols_fit.calls": ("count", _calls("theory.ols_fit")),
    "theory.ols_fit.self_s": ("s", _self("theory.ols_fit")),
    "theory.lemma.self_s": ("s", _self("theory.lemma")),
    "theory.measure_gap.self_s": ("s", _self("theory.measure_gap")),
    "tlcm.demo.self_s": ("s", _self("tlcm.demo")),
    "cli.manifest.bytes": ("bytes", _counted("cli.manifest.bytes")),
    "cli.manifest.self_s": ("s", _self("cli.manifest")),
    "cli.command.self_s": ("s", _self("cli.command")),
}


def missing_metrics(missing_layers) -> list[str]:
    """Per-layer metrics fed by a target ``install`` could not find."""
    prefixes = tuple(layer + "." for layer in set(missing_layers))
    return [name for name in LAYER_METRICS if prefixes and name.startswith(prefixes)]


def read_layers(tracer: Tracer) -> dict[str, float]:
    return {name: read(tracer) for name, (unit, read) in LAYER_METRICS.items()}
