"""Experiment runner.

Subcommands: ``gen-data``, ``train``, ``explore``, ``rank-corr``, ``theory``,
``tlcm-demo``. Every run is reproducible from (config, seed): the global seed
derives one independent substream per (strategy, seed index, stage) through
the counter-based scheme in :mod:`wavlab.rng`, results land in
``<out>/<run_id>/`` where ``run_id`` hashes the resolved config and seed, and
all CSVs are byte-stable across reruns except for wall-time columns.

Configs are JSON with strict validation: unknown keys, values whose JSON
type does not match the field's annotation, and names outside a key's known
choices are rejected before any work starts. Every omitted key takes the
documented default.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import sys
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import datasets, tlcm
from .errors import ConfigError, TheoryInvariantError, WavlabError
from .metrics import kendall, spearman
from .models import (
    TrainConfig,
    _json_type_error,
    save_model,
    train_ensemble,
    train_idm,
    train_world_model,
)
from .rng import substream
from .theory import (
    LinearGaussianSpec,
    check_sweep,
    lemma_excess_risk,
    measure_gap,
    sweep_gap,
)
from .verify import (
    CONSULTED_MODELS,
    DEFAULT_DISTANCE,
    DISTANCES,
    STRATEGIES,
    ExplorationConfig,
    _label_free_losses,
    run_exploration,
    score_candidates,
    train_models,
)

ROUNDS_COLUMNS = (
    "run_id", "strategy", "seed", "round", "budget_used", "test_pred_loss",
    "dynamics_accuracy", "spearman_vs_oracle", "kendall_vs_oracle", "wall_time_s",
)
THEORY_COLUMNS = (
    "d_s", "d_a", "d_z", "sigma_s", "sigma_a", "lam", "n", "trials",
    "emp_EF", "theo_EF", "emp_EI", "theo_EI_bound", "emp_ratio", "gamma_bound",
    "factor_dim", "factor_stoch", "factor_sample", "rel_err_EF", "low_trials",
)
LOW_TRIALS = 1000
TLCM_VARIANTS = ("base", "aliasing", "back-action")


# ---------------------------------------------------------------------------
# Config schemas
# ---------------------------------------------------------------------------


def _choice(default, known):
    """A config field whose value, or each entry of a list value, is one of ``known``."""
    return field(default=default, metadata={"known": list(known)})


class _Choices:
    """Base of the configs whose :func:`_choice` fields reject unknown values."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            known, value = f.metadata.get("known"), getattr(self, f.name)
            for v in value if isinstance(value, (list, tuple)) else [value]:
                if known is not None and v not in known:
                    raise ConfigError(f"{f.name}: unknown value {v!r}; known: {known}")


def _checked_value(value, hint, where: str):
    """``value`` if it fits the annotation ``hint``; sections are built recursively."""
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, value, where)
    problem = _json_type_error(value, hint)
    if problem:
        raise ConfigError(f"{where}: {problem}")
    return tuple(value) if hint is tuple else value


def _from_dict(cls, obj, where: str):
    """Build a dataclass from a JSON object, rejecting unknown keys and wrong types."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; known: {sorted(hints)}")
    kwargs = {
        name: _checked_value(value, hints[name], f"{where}.{name}")
        for name, value in obj.items()
    }
    try:
        return cls(**kwargs)
    except ConfigError as err:  # a range or choice check naming its key
        raise ConfigError(f"{where}.{err}") from err


@dataclass(frozen=True)
class EnvSection:
    width: int = 8
    height: int = 8
    n_objects: int = 6
    n_noisy_floors: int = 2
    floor_palette: int = 4
    horizon: int = 60

    def to_env(self) -> datasets.EnvConfig:
        return datasets.EnvConfig(**dataclasses.asdict(self))


@dataclass(frozen=True)
class SplitSection:
    seed_size: int = 200
    pool_size: int = 2000
    test_size: int = 700
    video_size: int = 5000


@dataclass(frozen=True)
class HyperSection:
    learning_rate: Optional[float] = None
    batch_size: Optional[int] = None
    epochs: Optional[int] = None
    init_scale: Optional[float] = None
    gate_init: Optional[float] = None
    gate_lr: Optional[float] = None
    gate_warmup_frac: Optional[float] = None

    def __post_init__(self):
        self.to_hyper(TrainConfig())  # TrainConfig checks each given value's range

    def to_hyper(self, base: TrainConfig) -> TrainConfig:
        overrides = {
            k: v for k, v in dataclasses.asdict(self).items() if v is not None
        }
        return dataclasses.replace(base, **overrides)


@dataclass(frozen=True)
class GenDataConfig(_Choices):
    env: EnvSection = field(default_factory=EnvSection)
    split: SplitSection = field(default_factory=SplitSection)
    source: str = _choice("task", ("task", "random"))
    collect_margin: float = 1.1


@dataclass(frozen=True)
class TrainCmdConfig(_Choices):
    dataset: str = ""
    models: tuple = _choice(("world", "idm-vanilla", "idm-sparse"),
                            ("world", "idm-vanilla", "idm-sparse", "ensemble"))
    wm: HyperSection = field(default_factory=HyperSection)
    idm: HyperSection = field(default_factory=HyperSection)
    sparsity_weight: float = 0.1
    ensemble_size: int = 3


@dataclass(frozen=True)
class RankCorrConfig(_Choices):
    dataset: str = ""
    strategies: tuple = _choice((
        "wav-sparse", "wav-vanilla", "uncertainty", "progress", "random", "oracle",
    ), STRATEGIES)
    seeds: int = 5
    n_candidates: int = 300
    warmup_budget: int = 100
    ensemble_size: int = 3
    sparsity_weight: float = 0.1
    distance: str = _choice(DEFAULT_DISTANCE, DISTANCES)
    wm: HyperSection = field(default_factory=HyperSection)
    idm: HyperSection = field(default_factory=HyperSection)


@dataclass(frozen=True)
class ExploreConfig(_Choices):
    dataset: str = ""
    strategies: tuple = _choice(("random", "wav-sparse", "oracle"), STRATEGIES)
    seeds: int = 5
    rounds: int = 3
    budget: int = 100
    ensemble_size: int = 3
    sparsity_weight: float = 0.1
    distance: str = _choice(DEFAULT_DISTANCE, DISTANCES)
    checkpoints: str = _choice("round", ("round", "final", "none"))
    wm: HyperSection = field(default_factory=HyperSection)
    idm: HyperSection = field(default_factory=HyperSection)


@dataclass(frozen=True)
class LemmaSection:
    grid: tuple = ((2, 10, 1.0), (5, 30, 1.0), (10, 50, 2.0))
    trials: int = 10000


@dataclass(frozen=True)
class GapSection:
    d_s_grid: tuple = (10, 20, 30)
    n_grid: tuple = (50, 100, 200)
    d_a: int = 2
    d_z: int = 2
    sigma_s: float = 1.0
    sigma_a: float = 0.1
    lam: float = 1.0
    trials: int = 10000


@dataclass(frozen=True)
class SweepSection:
    d_s_grid: tuple = (10, 16, 24)
    sigma_s_grid: tuple = (0.5, 1.0, 2.0)
    n_grid: tuple = (40, 80, 160)
    d_s: int = 12
    d_a: int = 2
    d_z: int = 2
    sigma_s: float = 1.0
    sigma_a: float = 0.1
    lam: float = 1.0
    n: int = 60
    trials: int = 2000


@dataclass(frozen=True)
class TheoryConfig:
    lemma: LemmaSection = field(default_factory=LemmaSection)
    gap: GapSection = field(default_factory=GapSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    rel_err_tolerance: float = 0.05


@dataclass(frozen=True)
class TlcmConfig(_Choices):
    seed_size: int = 600
    n_eval: int = 1000
    variants: tuple = _choice(TLCM_VARIANTS, TLCM_VARIANTS)


_COMMAND_CONFIGS = {
    "gen-data": GenDataConfig,
    "train": TrainCmdConfig,
    "explore": ExploreConfig,
    "rank-corr": RankCorrConfig,
    "theory": TheoryConfig,
    "tlcm-demo": TlcmConfig,
}


def _load_config(command: str, path: Optional[str]):
    cls = _COMMAND_CONFIGS[command]
    if path is None:
        return cls()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err.msg})") from err
    return _from_dict(cls, obj, command)


def _config_dict(config) -> dict:
    def convert(value):
        if dataclasses.is_dataclass(value):
            return {f.name: convert(getattr(value, f.name))
                    for f in dataclasses.fields(value)}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return convert(config)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class RunDir:
    """Hash-addressed output directory with a content manifest."""

    def __init__(self, command: str, config, seed: int, out_root: str, force: bool):
        payload = json.dumps(
            {"command": command, "config": _config_dict(config), "seed": seed},
            sort_keys=True, separators=(",", ":"),
        )
        self.run_id = hashlib.sha256(payload.encode()).hexdigest()[:12]
        self.command = command
        self.seed = seed
        self.config = config
        self.path = Path(out_root) / self.run_id
        if self.path.exists():
            if not force:
                raise ConfigError(
                    f"output {self.path} already exists; pass --force to overwrite"
                )
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        self.extra: dict = {}

    def file(self, name: str) -> Path:
        target = self.path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        return target

    def finish(self) -> Path:
        files = {}
        for item in sorted(self.path.rglob("*")):
            if item.is_file() and item.name != "manifest.json":
                data = item.read_bytes()
                files[str(item.relative_to(self.path))] = {
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                }
        manifest = {
            "run_id": self.run_id,
            "command": self.command,
            "seed": self.seed,
            "config": _config_dict(self.config),
            "files": files,
        }
        manifest.update(self.extra)
        with open(self.path / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen_data(config: GenDataConfig, seed: int, run: RunDir) -> int:
    env = config.env.to_env()
    split_config = datasets.SplitConfig(**dataclasses.asdict(config.split))
    rng = substream(seed, "gen-data")
    n_collect = int(np.ceil(split_config.total * config.collect_margin))
    if config.source == "task":
        source = datasets.collect_task_play(env, n_collect, rng)
    else:
        source = datasets.collect_random_play(env, n_collect, rng)
    split = datasets.build_split(source, split_config, rng, env)
    datasets.save(split, run.file("split.wavsplit"))
    run.extra["partitions"] = {
        "seed_labeled": len(split.seed_labeled),
        "pool": len(split.pool),
        "test": len(split.test),
        "video": len(split.video),
    }
    print(f"[gen-data] wrote {len(source)} transitions to {run.path / 'split.wavsplit'}")
    return 0


def _resolved_hypers(config) -> tuple[TrainConfig, TrainConfig]:
    from .models import DEFAULT_IDM_HYPER, DEFAULT_WM_HYPER

    return (
        config.wm.to_hyper(DEFAULT_WM_HYPER),
        config.idm.to_hyper(DEFAULT_IDM_HYPER),
    )


def _exploration_config(config, **loop) -> ExplorationConfig:
    """The training knobs of an explore or rank-corr config, plus ``loop`` fields."""
    wm_hyper, idm_hyper = _resolved_hypers(config)
    return ExplorationConfig(
        ensemble_size=config.ensemble_size,
        sparsity_weight=config.sparsity_weight,
        distance=config.distance,
        wm_hyper=wm_hyper,
        idm_hyper=idm_hyper,
        **loop,
    )


def cmd_train(config: TrainCmdConfig, seed: int, run: RunDir) -> int:
    if not config.dataset:
        raise ConfigError("train needs a 'dataset' path in the config")
    split = datasets.load(config.dataset)
    encoder = split.encoder()
    wm_hyper, idm_hyper = _resolved_hypers(config)
    labeled = split.seed_labeled
    trained = {}
    for name in config.models:
        rng = substream(seed, "train", name)
        if name == "world":
            trained[name] = train_world_model(labeled, encoder, wm_hyper, rng)
        elif name == "idm-vanilla":
            trained[name] = train_idm(labeled, 0.0, idm_hyper, rng, encoder=encoder)
        elif name == "idm-sparse":
            trained[name] = train_idm(
                labeled, config.sparsity_weight, idm_hyper, rng, encoder=encoder
            )
        else:  # "ensemble"
            trained[name] = train_ensemble(
                labeled, encoder, config.ensemble_size, wm_hyper, rng
            )
    metrics = {}
    for name, model in trained.items():
        save_model(model, run.file(f"models/{name}.json"))
        if hasattr(model, "loss_curve") and model.loss_curve:
            metrics[name] = {"final_train_loss": model.loss_curve[-1]}
    if "world" in trained:
        from .metrics import prediction_loss

        metrics.setdefault("world", {})["test_pred_loss"] = prediction_loss(
            trained["world"], split.test
        )
    with open(run.file("train_metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[train] saved {sorted(trained)} under {run.path / 'models'}")
    return 0


def _explore_cell(split, strategy, seed_index, seed, exploration, checkpoints, model_dir):
    """One (strategy, seed index) exploration cell on a fresh copy of ``split``."""
    on_models = None
    if checkpoints != "none":
        def on_models(round_no, models):
            if checkpoints == "final" and round_no != exploration.rounds:
                return
            save_model(
                models.world,
                Path(model_dir) / f"{strategy}_s{seed_index}_r{round_no}_world.json",
            )
    rng = substream(seed, "explore", strategy, seed_index)
    logs = run_exploration(split.fresh_copy(), strategy, exploration, rng, on_models=on_models)
    return strategy, seed_index, logs


# The split an explore worker process loaded through the pool initializer.
_worker_split: Optional[datasets.ExperimentSplit] = None


def _load_worker_split(dataset: str) -> None:
    global _worker_split
    _worker_split = datasets.load(dataset)


def _worker_cell(cell):
    return _explore_cell(_worker_split, *cell)


def cmd_explore(config: ExploreConfig, seed: int, run: RunDir, jobs: int = 1) -> int:
    if not config.dataset:
        raise ConfigError("explore needs a 'dataset' path in the config")

    # Loading here also reports a missing or malformed split before any worker
    # starts.
    split = datasets.load(config.dataset)
    exploration = _exploration_config(config, rounds=config.rounds, budget=config.budget)
    model_dir = run.path / "models"
    if config.checkpoints != "none":
        model_dir.mkdir(parents=True, exist_ok=True)
    cells = [
        (strategy, seed_index, seed, exploration, config.checkpoints, str(model_dir))
        for strategy in config.strategies
        for seed_index in range(config.seeds)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_load_worker_split, initargs=(config.dataset,)
        ) as pool:
            results = list(pool.map(_worker_cell, cells))
    else:
        results = [_explore_cell(split, *cell) for cell in cells]

    order = {s: i for i, s in enumerate(config.strategies)}
    results.sort(key=lambda r: (order[r[0]], r[1]))
    rows = []
    for strategy, seed_index, logs in results:
        for log in logs:
            rows.append((
                run.run_id, strategy, seed_index, log.round,
                log.round * config.budget,
                log.post_test_loss, log.post_dynamics_accuracy,
                log.spearman_vs_oracle, log.kendall_vs_oracle,
                round(log.wall_time_s, 3),
            ))
    _write_csv(run.file("rounds.csv"), ROUNDS_COLUMNS, rows)
    print(f"[explore] wrote {len(rows)} rows to {run.path / 'rounds.csv'}")
    return 0


def cmd_rank_corr(config: RankCorrConfig, seed: int, run: RunDir) -> int:
    if not config.dataset:
        raise ConfigError("rank-corr needs a 'dataset' path in the config")
    split_master = datasets.load(config.dataset)
    encoder = split_master.encoder()
    training = _exploration_config(config)
    consulted = {m for s in config.strategies for m in CONSULTED_MODELS.get(s, ())}
    progress = "progress" in config.strategies
    corr_rows = []
    scatter_rows = []
    for seed_index in range(config.seeds):
        split = split_master.fresh_copy()
        rng = substream(seed, "rank-corr", seed_index)
        warm_rng, train_rng, pick_rng = rng.spawn(3)

        labeled = list(split.seed_labeled)
        # Every model's generator is spawned whether or not the model is
        # trained, so each model gets the same one whatever strategies run.
        wm0_rng, idm0_rng, wm_rng, vanilla_rng, sparse_rng, ens_rng = train_rng.spawn(6)
        if progress:
            previous = train_models(("idm_vanilla",), labeled, encoder, training,
                                    {"world": wm0_rng, "idm_vanilla": idm0_rng})
        unrevealed = split.pool.unrevealed_indices()
        warm_picks = warm_rng.choice(
            len(unrevealed), size=min(config.warmup_budget, len(unrevealed)),
            replace=False,
        )
        for k in sorted(int(i) for i in warm_picks):
            labeled.append(datasets.reveal_action(split.pool, unrevealed[k]))

        # The world model is always trained: it scores the oracle truth.
        models = train_models(consulted, labeled, encoder, training, {
            "world": wm_rng, "idm_vanilla": vanilla_rng, "idm_sparse": sparse_rng,
            "ensemble": ens_rng,
        })
        remaining = split.pool.unrevealed_indices()
        picks = pick_rng.choice(
            len(remaining), size=min(config.n_candidates, len(remaining)), replace=False
        )
        candidates = [split.pool.items[remaining[int(i)]] for i in sorted(picks)]
        if progress:
            models.prev_candidate_losses = {
                c.tid: float(v)
                for c, v in zip(candidates, _label_free_losses(
                    previous.world, previous.idm_vanilla, candidates))
            }
        oracle_scores = score_candidates("oracle", models, candidates)
        for strategy in config.strategies:
            # Only the non-cycle strategies draw a child generator; the random
            # rows depend on that order.
            values = score_candidates(
                strategy, models, candidates,
                rng=None if strategy.startswith("wav-") else rng.spawn(1)[0],
                intervals=max(1, len(candidates) // 10),
                distance=config.distance,
            )
            try:
                rho = spearman(values, oracle_scores)
                tau = kendall(values, oracle_scores)
            except WavlabError:
                rho = tau = float("nan")
            corr_rows.append((
                run.run_id, strategy, seed_index, rho, tau, len(candidates)
            ))
            for c, v, e in zip(candidates, values, oracle_scores):
                scatter_rows.append((
                    run.run_id, strategy, seed_index, c.tid, float(v), float(e)
                ))
    _write_csv(
        run.file("rank_corr.csv"),
        ("run_id", "strategy", "seed", "spearman_vs_oracle", "kendall_vs_oracle",
         "n_candidates"),
        corr_rows,
    )
    _write_csv(
        run.file("score_vs_error.csv"),
        ("run_id", "strategy", "seed", "candidate_id", "score", "true_error"),
        scatter_rows,
    )
    print(f"[rank-corr] wrote {len(corr_rows)} correlation rows")
    return 0


def cmd_theory(config: TheoryConfig, seed: int, run: RunDir) -> int:
    failures: list[str] = []
    started = time.perf_counter()

    lemma_rows = []
    for i, (D, n, nu) in enumerate(config.lemma.grid):
        res = lemma_excess_risk(
            int(D), int(n), float(nu), config.lemma.trials,
            substream(seed, "theory", "lemma", i),
        )
        low = int(res.trials < LOW_TRIALS)
        lemma_rows.append((
            res.D, res.n, res.nu, res.trials, res.empirical, res.theoretical,
            res.rel_err, low,
        ))
        if not low and res.rel_err > config.rel_err_tolerance:
            failures.append(
                f"lemma cell D={res.D} n={res.n}: rel_err {res.rel_err:.4f}"
            )
    _write_csv(
        run.file("theory_lemma.csv"),
        ("D", "n", "nu", "trials", "empirical", "theoretical", "rel_err", "low_trials"),
        lemma_rows,
    )
    started = _section_timed("lemma", started)

    gap_rows = []
    g = config.gap
    for d_s in g.d_s_grid:
        spec = LinearGaussianSpec.default(
            int(d_s), g.d_a, g.d_z, g.sigma_s, g.sigma_a, g.lam,
            rng=substream(seed, "theory", "gap-spec", int(d_s)),
        )
        for n in g.n_grid:
            report = measure_gap(
                spec, int(n), g.trials, substream(seed, "theory", "gap", int(d_s), int(n))
            )
            low = int(report.trials < LOW_TRIALS)
            gap_rows.append(_theory_row(report, low))
            if low:
                continue
            if report.rel_err_EF > config.rel_err_tolerance:
                failures.append(
                    f"gap cell d_s={report.d_s} n={report.n}: "
                    f"rel_err_EF {report.rel_err_EF:.4f}"
                )
            if report.emp_EI > report.theo_EI_bound + 2 * report.se_EI:
                # With the default column-orthonormal B the bound holds with
                # equality, so single cells can overshoot by sampling noise.
                failures.append(
                    f"gap cell d_s={report.d_s} n={report.n}: inverse risk "
                    f"{report.emp_EI:.6g} above bound {report.theo_EI_bound:.6g} "
                    f"+ 2se; rerun with another seed or more trials to confirm"
                )
            audit = report.factor_dim * report.factor_stoch * report.factor_sample
            if abs(audit - report.gamma_bound) > 1e-12:
                failures.append(
                    f"gap cell d_s={report.d_s} n={report.n}: factorization audit"
                )
    _write_csv(run.file("theory_gap.csv"), THEORY_COLUMNS, gap_rows)
    started = _section_timed("gap", started)

    s = config.sweep
    sweep_rows = []
    families = (
        ("dimensionality",
         [LinearGaussianSpec.default(int(ds), s.d_a, s.d_z, s.sigma_s, s.sigma_a, s.lam,
                                     rng=substream(seed, "theory", "sweep-dim", int(ds)))
          for ds in s.d_s_grid],
         [s.n]),
        ("stochasticity",
         [LinearGaussianSpec.default(s.d_s, s.d_a, s.d_z, float(ss), s.sigma_a, s.lam,
                                     rng=substream(seed, "theory", "sweep-stoch"))
          for ss in s.sigma_s_grid],
         [s.n]),
        ("sample-size",
         [LinearGaussianSpec.default(s.d_s, s.d_a, s.d_z, s.sigma_s, s.sigma_a, s.lam,
                                     rng=substream(seed, "theory", "sweep-n"))],
         list(s.n_grid)),
    )
    for name, specs, n_grid in families:
        reports = sweep_gap(specs, n_grid, s.trials, substream(seed, "theory", "sweep-run", name))
        try:
            check_sweep(reports)
        except TheoryInvariantError as err:
            failures.append(f"sweep family {name}: {err}")
        for report in reports:
            sweep_rows.append(
                (name,) + _theory_row(report, int(report.trials < LOW_TRIALS))
            )
    _write_csv(run.file("theory_sweep.csv"), ("family",) + THEORY_COLUMNS, sweep_rows)
    _section_timed("sweep", started)

    for message in failures:
        print(f"[theory] FAIL {message}", file=sys.stderr)
    print(f"[theory] wrote lemma/gap/sweep tables under {run.path}")
    return 1 if failures else 0


def _section_timed(name: str, started: float) -> float:
    """Report a theory section's seconds on stderr; returns the time now."""
    now = time.perf_counter()
    print(f"[theory] {name} section took {now - started:.2f} s", file=sys.stderr)
    return now


def _theory_row(report, low: int) -> tuple:
    return (
        report.d_s, report.d_a, report.d_z, report.sigma_s, report.sigma_a,
        report.lam, report.n, report.trials, report.emp_EF, report.theo_EF,
        report.emp_EI, report.theo_EI_bound, report.emp_ratio, report.gamma_bound,
        report.factor_dim, report.factor_stoch, report.factor_sample,
        report.rel_err_EF, low,
    )


def cmd_tlcm_demo(config: TlcmConfig, seed: int, run: RunDir) -> int:
    rows = []
    for variant in config.variants:
        spec = tlcm.default_tlcm(
            aliasing=variant == "aliasing", back_action=variant == "back-action"
        )
        report = tlcm.tlcm_demo(
            spec, config.seed_size, substream(seed, "tlcm", variant),
            n_eval=config.n_eval,
        )
        rows.append((
            variant, report.seed_size, report.n_eval,
            report.s_restricted_oos_accuracy, report.dense_oos_accuracy,
            report.best_achievable_s_accuracy,
            "" if report.aliased_pair_accuracy is None else report.aliased_pair_accuracy,
        ))
        print(
            f"[tlcm-demo] {variant}: subset acc {report.s_restricted_oos_accuracy:.3f}, "
            f"dense acc {report.dense_oos_accuracy:.3f}, "
            f"ceiling {report.best_achievable_s_accuracy:.3f}"
        )
    _write_csv(
        run.file("tlcm_demo.csv"),
        ("variant", "seed_size", "n_eval", "s_restricted_oos_accuracy",
         "dense_oos_accuracy", "best_achievable_s_accuracy", "aliased_pair_accuracy"),
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavlab",
        description="Self-verifying world-model laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-data", "collect transitions and write a dataset split"),
        ("train", "train models on a dataset split"),
        ("explore", "run multi-round acquisition for each strategy and seed"),
        ("rank-corr", "rank-correlation diagnostics of scoring strategies"),
        ("theory", "validate the linear-Gaussian risk formulas"),
        ("tlcm-demo", "discrete latent-causal-model identifiability demo"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0, help="global seed")
        p.add_argument("--out", type=str, default="out", help="output root directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing run directory")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel (strategy, seed) cells where supported")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    run = None
    try:
        config = _load_config(args.command, args.config)
        run = RunDir(args.command, config, args.seed, args.out, args.force)
        if args.command == "gen-data":
            code = cmd_gen_data(config, args.seed, run)
        elif args.command == "train":
            code = cmd_train(config, args.seed, run)
        elif args.command == "explore":
            code = cmd_explore(config, args.seed, run, jobs=args.jobs)
        elif args.command == "rank-corr":
            code = cmd_rank_corr(config, args.seed, run)
        elif args.command == "theory":
            code = cmd_theory(config, args.seed, run)
        else:
            code = cmd_tlcm_demo(config, args.seed, run)
        run.finish()
        print(f"[{args.command}] run {run.run_id} complete (exit {code})")
        return code
    except WavlabError as err:
        if run is not None:
            # A run that ends in an error has no manifest: drop its partial
            # directory.
            shutil.rmtree(run.path)
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
