"""One iteration of one workload, in a process of its own.

run.py starts this script once per iteration with the BLAS thread variables
already pinned and ``src/`` on ``PYTHONPATH``. The iteration sets up its
inputs from the seed, runs the timed phase (traced if asked), checks the
outputs and writes a JSON result file. It can also be run by hand:

    python3 perfbench/worker.py --workload acquire --seed 1 --workdir work --result r.json
    python3 perfbench/worker.py --workload acquire --seed 1 --write-reference

``--write-reference`` stores the outputs under ``perfbench/reference/`` for
later runs at the same seed to compare against.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class Checks:
    """Counts attempted and failed operations; keeps the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _quiet_main(argv) -> tuple[int, str]:
    """Run the wavlab CLI in-process; returns (exit code, captured stderr)."""
    from wavlab import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _run_dir(out: Path, command: str) -> Path:
    found = [
        p.parent for p in out.glob("*/manifest.json")
        if json.loads(p.read_text(encoding="utf-8"))["command"] == command
    ]
    if len(found) != 1:
        raise RuntimeError(f"expected one {command} run under {out}, found {len(found)}")
    return found[0]


def _check_manifest(checks: Checks, run_dir: Path) -> None:
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    listed = manifest["files"]
    present = {
        str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    bad = [
        name for name, entry in listed.items()
        if not (run_dir / name).is_file()
        or hashlib.sha256((run_dir / name).read_bytes()).hexdigest() != entry["sha256"]
        or (run_dir / name).stat().st_size != entry["bytes"]
    ]
    checks.expect(
        f"{run_dir.name} manifest hashes match the files",
        not bad and present == set(listed),
        f"mismatched {bad[:3]}, unlisted {sorted(present - set(listed))[:3]}",
    )


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Pipeline:
    """``wavlab gen-data`` then ``wavlab explore`` on the split it wrote."""

    GEN_DATA = {
        "env": {"width": 5, "height": 5, "n_objects": 3},
        "split": {"seed_size": 100, "pool_size": 400, "test_size": 140, "video_size": 1000},
    }
    EXPLORE = {
        "strategies": ["random", "oracle"], "seeds": 1, "rounds": 3, "budget": 30,
        "checkpoints": "round",
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"

    def setup(self) -> None:
        self.gen_config = self.workdir / "gen-data.json"
        self.gen_config.write_text(json.dumps(self.GEN_DATA), encoding="utf-8")

    def _cli(self, command: str, config: Path) -> tuple[int, str]:
        return _quiet_main([
            command, "--config", str(config), "--seed", str(self.seed),
            "--out", str(self.out), "--jobs", "1",
        ])

    def run(self) -> dict:
        started = time.perf_counter()
        self.gen_code, _ = self._cli("gen-data", self.gen_config)
        gen_data_s = time.perf_counter() - started
        self.split_path = _run_dir(self.out, "gen-data") / "split.wavsplit"
        explore_config = self.workdir / "explore.json"
        explore_config.write_text(
            json.dumps(dict(self.EXPLORE, dataset=str(self.split_path))), encoding="utf-8"
        )
        started = time.perf_counter()
        self.explore_code, _ = self._cli("explore", explore_config)
        explore_s = time.perf_counter() - started
        out_bytes = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return {
            "gen_data_s": gen_data_s, "explore_s": explore_s,
            "out_mb": out_bytes / 1e6,
        }

    def check(self, checks: Checks) -> dict:
        from wavlab import datasets

        checks.expect("gen-data exits 0", self.gen_code == 0, f"exit {self.gen_code}")
        checks.expect("explore exits 0", self.explore_code == 0, f"exit {self.explore_code}")

        lines = self.split_path.read_text(encoding="utf-8").splitlines()[1:]
        split = datasets.load(self.split_path)
        enc = split.encoder()
        records = split.seed_labeled + split.pool.items + split.test + split.video
        wrong = [
            obj["id"] for obj, rec in zip(map(json.loads, lines), records)
            if obj["id"] != rec.tid
            or obj["s"] != enc.active_indices(rec.state)
            or obj["s_next"] != enc.active_indices(rec.next_state)
        ]
        checks.expect(
            "split reloads with the active indices written",
            len(records) == len(lines) and not wrong,
            f"{len(records)} records for {len(lines)} lines; ids differing {wrong[:5]}",
        )

        explore_dir = _run_dir(self.out, "explore")
        rows = _read_csv(explore_dir / "rounds.csv")
        cfg = self.EXPLORE
        want = len(cfg["strategies"]) * cfg["seeds"] * cfg["rounds"]
        checks.expect(
            "rounds.csv is complete and consistent",
            len(rows) == want
            and _finite(r["test_pred_loss"] for r in rows)
            and all(0.0 <= float(r["dynamics_accuracy"]) <= 1.0 for r in rows)
            and all(int(r["budget_used"]) == int(r["round"]) * cfg["budget"] for r in rows),
            f"{len(rows)} rows, want {want}",
        )
        checkpoints = sorted(p.name for p in (explore_dir / "models").glob("*.json"))
        checks.expect(
            "one world-model checkpoint per cell and round",
            len(checkpoints) == want, f"{len(checkpoints)} checkpoints",
        )
        for command in ("gen-data", "explore"):
            _check_manifest(checks, _run_dir(self.out, command))
        return {
            "rounds": [
                [r[c] for c in r if c not in ("run_id", "wall_time_s")] for r in rows
            ],
            "losses": [float(r["test_pred_loss"]) for r in rows],
            "split_sha256": hashlib.sha256(self.split_path.read_bytes()).hexdigest(),
        }


class Acquire:
    """Library exploration cells without persistence: wav-sparse, uncertainty."""

    ENV = {"width": 5, "height": 5, "n_objects": 4, "n_noisy_floors": 2, "horizon": 60}
    SPLIT = {"seed_size": 40, "pool_size": 300, "test_size": 140, "video_size": 0}
    STRATEGIES = ("wav-sparse", "uncertainty")
    ROUNDS, BUDGET = 3, 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        from wavlab import datasets
        from wavlab.rng import substream

        env = datasets.EnvConfig(**self.ENV)
        split_config = datasets.SplitConfig(**self.SPLIT)
        rng = substream(self.seed, "perfbench", "acquire")
        data = datasets.collect_task_play(env, int(split_config.total * 1.8), rng)
        self.split = datasets.build_split(data, split_config, rng, env)

    def run(self) -> dict:
        from wavlab import verify
        from wavlab.rng import substream

        config = verify.ExplorationConfig(rounds=self.ROUNDS, budget=self.BUDGET)
        self.cells = {}
        phases = {}
        for strategy in self.STRATEGIES:
            cell = self.split.fresh_copy()
            rng = substream(self.seed, "perfbench", "acquire", strategy)
            started = time.perf_counter()
            logs = verify.run_exploration(cell, strategy, config, rng)
            phases[f"cell_s.{strategy}"] = time.perf_counter() - started
            self.cells[strategy] = (cell, logs)
        phases["test_loss.wav-sparse"] = self.cells["wav-sparse"][1][-1].post_test_loss
        return phases

    def check(self, checks: Checks) -> dict:
        outputs = {}
        for strategy, (cell, logs) in self.cells.items():
            picked = [tid for log in logs for tid in log.acquired_ids]
            revealed = {cell.pool.items[i].tid for i in cell.pool.revealed_indices()}
            want = self.ROUNDS * self.BUDGET
            checks.expect(
                f"{strategy} reveals {want} distinct pool items",
                len(logs) == self.ROUNDS and len(picked) == want
                and len(set(picked)) == want and set(picked) == revealed,
                f"{len(picked)} picks, {len(set(picked))} distinct, {len(revealed)} revealed",
            )
            losses = [v for log in logs for v in (log.pre_test_loss, log.post_test_loss)]
            checks.expect(f"{strategy} losses are finite", _finite(losses), str(losses))
            accuracy = [
                v for log in logs
                for v in (log.pre_dynamics_accuracy, log.post_dynamics_accuracy)
            ]
            checks.expect(
                f"{strategy} accuracy lies in [0, 1]",
                all(0.0 <= a <= 1.0 for a in accuracy), str(accuracy),
            )
            outputs[strategy] = {
                "losses": [log.post_test_loss for log in logs],
                "acquired": [log.acquired_ids for log in logs],
            }
        outputs["losses"] = [v for cell in list(outputs.values()) for v in cell["losses"]]
        return outputs


class Theory:
    """``wavlab theory`` (lemma, gap and sweep), then ``wavlab tlcm-demo``."""

    CONFIG = {
        "lemma": {"grid": [[2, 10, 1.0], [5, 30, 1.0], [10, 50, 2.0]], "trials": 10000},
        "gap": {"d_s_grid": [10, 20], "n_grid": [50, 100], "trials": 2000},
        "sweep": {"d_s_grid": [10, 16], "sigma_s_grid": [0.5, 1.0], "n_grid": [40, 80],
                  "trials": 2000},
    }
    # Monte Carlo checks that trip by sampling noise at some seeds (see the
    # README note on `wavlab theory`); every other FAIL line is a defect.
    STATISTICAL = ("rel_err", "inverse risk", "falls short of the bound")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"

    @classmethod
    def ols_fits(cls) -> int:
        """``ols_fit`` calls one theory run makes: one per lemma trial, two
        (forward and inverse) per gap and sweep trial."""
        lemma, gap, sweep = cls.CONFIG["lemma"], cls.CONFIG["gap"], cls.CONFIG["sweep"]
        sweep_cells = len(sweep["d_s_grid"]) + len(sweep["sigma_s_grid"]) + len(sweep["n_grid"])
        return (
            len(lemma["grid"]) * lemma["trials"]
            + 2 * len(gap["d_s_grid"]) * len(gap["n_grid"]) * gap["trials"]
            + 2 * sweep_cells * sweep["trials"]
        )

    def setup(self) -> None:
        self.config = self.workdir / "theory.json"
        self.config.write_text(json.dumps(self.CONFIG), encoding="utf-8")

    def run(self) -> dict:
        started = time.perf_counter()
        self.theory_code, self.theory_err = _quiet_main([
            "theory", "--config", str(self.config), "--seed", str(self.seed),
            "--out", str(self.out),
        ])
        self.tlcm_code, _ = _quiet_main([
            "tlcm-demo", "--seed", str(self.seed), "--out", str(self.out),
        ])
        wall = time.perf_counter() - started
        return {"ols_fits_per_s": self.ols_fits() / wall}

    def check(self, checks: Checks) -> dict:
        fails = [l for l in self.theory_err.splitlines() if l.startswith("[theory] FAIL")]
        defects = [l for l in fails if not any(k in l for k in self.STATISTICAL)]
        checks.expect(
            "theory exits 0, or 1 on Monte Carlo checks only",
            self.theory_code == 0 or (self.theory_code == 1 and fails and not defects),
            f"exit {self.theory_code}: {defects[:2]}",
        )
        checks.expect("tlcm-demo exits 0", self.tlcm_code == 0, f"exit {self.tlcm_code}")

        run = _run_dir(self.out, "theory")
        lemma = _read_csv(run / "theory_lemma.csv")
        gap = _read_csv(run / "theory_gap.csv")
        sweep = _read_csv(run / "theory_sweep.csv")
        cfg = self.CONFIG
        want = (
            len(cfg["lemma"]["grid"]),
            len(cfg["gap"]["d_s_grid"]) * len(cfg["gap"]["n_grid"]),
            sum(len(cfg["sweep"][k]) for k in ("d_s_grid", "sigma_s_grid", "n_grid")),
        )
        checks.expect(
            "theory tables have every row",
            (len(lemma), len(gap), len(sweep)) == want,
            f"{(len(lemma), len(gap), len(sweep))}, want {want}",
        )
        checks.expect(
            "lemma rows match nu^2 D / (n - D - 1)",
            all(
                _close(float(r["theoretical"]),
                       float(r["nu"]) ** 2 * int(r["D"]) / (int(r["n"]) - int(r["D"]) - 1))
                and float(r["empirical"]) > 0
                for r in lemma
            ),
        )

        def gap_row_ok(r):
            d_fwd = int(r["d_s"]) + int(r["d_a"])
            factors = float(r["factor_dim"]) * float(r["factor_stoch"]) * float(r["factor_sample"])
            return (
                _close(float(r["theo_EF"]),
                       float(r["sigma_s"]) ** 2 * d_fwd / (int(r["n"]) - d_fwd - 1))
                and _close(float(r["gamma_bound"]), factors)
                and float(r["emp_EF"]) > 0 and float(r["emp_EI"]) > 0
            )

        checks.expect(
            "gap and sweep rows match the closed forms",
            all(gap_row_ok(r) for r in gap + sweep),
        )
        tlcm_rows = _read_csv(_run_dir(self.out, "tlcm-demo") / "tlcm_demo.csv")
        checks.expect(
            "tlcm-demo reports every variant with accuracies in [0, 1]",
            len(tlcm_rows) == 3 and all(
                0.0 <= float(r[k]) <= 1.0 for r in tlcm_rows
                for k in ("s_restricted_oos_accuracy", "dense_oos_accuracy")
            ),
        )
        for command in ("theory", "tlcm-demo"):
            _check_manifest(checks, _run_dir(self.out, command))
        tables = {
            name: (run / name).read_text(encoding="utf-8")
            for name in ("theory_lemma.csv", "theory_gap.csv", "theory_sweep.csv")
        }
        return {
            "tables_sha256": hashlib.sha256(json.dumps(tables).encode()).hexdigest(),
            "tlcm": [list(r.values()) for r in tlcm_rows],
            "statistical_checks_passed": self.theory_code == 0,
        }


WORKLOADS = {"pipeline": Pipeline, "acquire": Acquire, "theory": Theory}
# Units of the phase metrics the workloads' run() methods return.
PHASE_UNITS = {
    "gen_data_s": "s", "explore_s": "s", "out_mb": "MB",
    "cell_s.wav-sparse": "s", "cell_s.uncertainty": "s", "test_loss.wav-sparse": "nats",
    "ols_fits_per_s": "1/s",
}


# ---------------------------------------------------------------------------
# Environment and reference outputs
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def compare_reference(workload: str, seed: int, outputs: dict) -> dict:
    """``outputs_identical`` and ``loss_drift`` against the stored reference."""
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {"reference": "none stored"}
    ref = json.loads(path.read_text(encoding="utf-8"))
    if ref["seed"] != seed:
        return {"reference": f"stored for seed {ref['seed']} only"}
    ref_out = ref["outputs"]
    drift = None
    if "losses" in ref_out and len(ref_out["losses"]) == len(outputs.get("losses", [])):
        drift = max(
            (abs(a - b) for a, b in zip(outputs["losses"], ref_out["losses"])), default=0.0
        )
    return {"outputs_identical": _canonical(outputs) == _canonical(ref_out),
            "loss_drift": drift}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def iterate(workload_name: str, seed: int, workdir: Path, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import wavlab

    if not Path(wavlab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported wavlab from {wavlab.__file__}, not from {SRC}")
    tracer = missing = None
    if trace:
        from spans import Tracer, install, missing_metrics, targets

        tracer = Tracer()
        missing = missing_metrics(install(tracer, targets()))
    span = tracer.root if tracer else (lambda name: contextlib.nullcontext())

    workload = WORKLOADS[workload_name](seed, workdir)
    with span("setup"):
        workload.setup()
    ready_at = time.monotonic()
    with span("run"):
        started, cpu_started = time.perf_counter(), time.process_time()
        phases = workload.run()
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - cpu_started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    outputs = workload.check(checks)
    result = {
        "ready_at": ready_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "phases": phases,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "outputs": outputs,
        "digest": hashlib.sha256(_canonical(outputs).encode()).hexdigest(),
        "reference": compare_reference(workload_name, seed, outputs),
        "environment": environment(),
    }
    if tracer is not None:
        from spans import read_layers

        result["layers"] = read_layers(tracer)
        result["missing_layers"] = missing
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")  # before numpy is imported

    if args.write_reference:
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            result = iterate(args.workload, args.seed, Path(tmp), trace=False)
        if result["failures"]:
            print("\n".join(result["failures"]), file=sys.stderr)
            return 1
        REFERENCE.mkdir(exist_ok=True)
        (REFERENCE / f"{args.workload}.json").write_text(
            json.dumps({"seed": args.seed, "outputs": result["outputs"]}, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        return 0
    if args.workdir is None or args.result is None:
        parser.error("--workdir and --result are required unless --write-reference")
    result = iterate(args.workload, args.seed, args.workdir, bool(args.trace))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
