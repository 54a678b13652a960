"""Command-line flows: config validation, outputs, determinism."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from wavlab import cli, verify
from wavlab.datasets import load


def run_cli(args):
    return cli.main([str(a) for a in args])


def only_run_dir(root: Path, before=()) -> Path:
    dirs = [p for p in Path(root).iterdir() if p.is_dir() and p not in before]
    assert len(dirs) == 1
    return dirs[0]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    config = out / "gen.json"
    config.write_text(json.dumps({
        "env": {"width": 6, "height": 6, "n_objects": 4, "n_noisy_floors": 1,
                "horizon": 40},
        "split": {"seed_size": 100, "pool_size": 400, "test_size": 140,
                  "video_size": 700},
    }))
    assert run_cli(["gen-data", "--config", config, "--seed", 9, "--out", out]) == 0
    return next(out.glob("*/split.wavsplit"))


def small_explore_config(dataset, **overrides):
    config = {
        "dataset": str(dataset),
        "strategies": ["random", "oracle"],
        "seeds": 1,
        "rounds": 2,
        "budget": 10,
        "checkpoints": "none",
        "wm": {"epochs": 5, "batch_size": 32},
        "idm": {"epochs": 20},
    }
    config.update(overrides)
    return config


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sneaky": 1}')
        assert run_cli(["theory", "--config", bad, "--out", tmp_path / "o"]) == 2

    def test_unknown_nested_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"env": {"widht": 8}}')
        assert run_cli(["gen-data", "--config", bad, "--out", tmp_path / "o"]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["tlcm-demo", "--config", bad, "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("config", [{"seeds": "2"}, {"strategies": "random"}],
                             ids=["seeds-str", "strategies-str"])
    def test_wrong_value_type_rejected(self, tmp_path, capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert run_cli(["explore", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert f"explore.{next(iter(config))}: expected" in capsys.readouterr().err

    def test_removed_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"subgoal_candidates": 4}')
        assert run_cli(["explore", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert "subgoal_candidates" in capsys.readouterr().err


class TestGenData:
    def test_manifest_hashes_stable_across_reruns(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({
            "env": {"width": 6, "height": 6, "n_objects": 3, "n_noisy_floors": 0,
                    "horizon": 30},
            "split": {"seed_size": 40, "pool_size": 150, "test_size": 70,
                      "video_size": 250},
        }))
        assert run_cli(["gen-data", "--config", config, "--seed", 4,
                        "--out", tmp_path / "a"]) == 0
        assert run_cli(["gen-data", "--config", config, "--seed", 4,
                        "--out", tmp_path / "b"]) == 0
        ma = json.loads(next((tmp_path / "a").glob("*/manifest.json")).read_text())
        mb = json.loads(next((tmp_path / "b").glob("*/manifest.json")).read_text())
        assert ma["files"] == mb["files"]
        assert set(ma["partitions"]) == {"seed_labeled", "pool", "test", "video"}

    def test_existing_output_needs_force(self, tmp_path, dataset):
        out = dataset.parent.parent
        config = out / "gen.json"
        assert run_cli(["gen-data", "--config", config, "--seed", 9, "--out", out]) == 2
        assert run_cli(["gen-data", "--config", config, "--seed", 9, "--out", out,
                        "--force"]) == 0

    def test_oversized_pool_fails_before_writing(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps({
            "env": {"width": 6, "height": 6, "n_objects": 3, "n_noisy_floors": 0,
                    "horizon": 30},
            "split": {"seed_size": 40, "pool_size": 10**6, "test_size": 70,
                      "video_size": 250},
            "collect_margin": 0.01,
        }))
        out = tmp_path / "o"
        assert run_cli(["gen-data", "--config", config, "--out", out]) == 2
        run_dir = only_run_dir(out)
        assert not (run_dir / "split.wavsplit").exists()

    def test_split_loads_back(self, dataset):
        split = load(dataset)
        assert len(split.seed_labeled) == 100
        assert len(split.pool) == 400


class TestExplore:
    def test_row_count_and_columns(self, dataset, tmp_path):
        config = tmp_path / "e.json"
        config.write_text(json.dumps(small_explore_config(dataset, seeds=2)))
        out = tmp_path / "o"
        assert run_cli(["explore", "--config", config, "--seed", 7, "--out", out]) == 0
        rows_file = next(out.glob("*/rounds.csv"))
        with open(rows_file) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert tuple(header) == cli.ROUNDS_COLUMNS
        assert len(rows) == 2 * 2 * 2  # strategies x seeds x rounds

    def test_rerun_identical_modulo_wall_time(self, dataset, tmp_path):
        config = tmp_path / "e.json"
        config.write_text(json.dumps(small_explore_config(dataset)))
        for name in ("a", "b"):
            assert run_cli(["explore", "--config", config, "--seed", 3,
                            "--out", tmp_path / name]) == 0

        def strip_wall(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time_s")
            return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]

        a = strip_wall(next((tmp_path / "a").glob("*/rounds.csv")))
        b = strip_wall(next((tmp_path / "b").glob("*/rounds.csv")))
        assert a == b

    def test_round_checkpoints_written(self, dataset, tmp_path):
        config = tmp_path / "e.json"
        config.write_text(json.dumps(small_explore_config(
            dataset, strategies=["random"], checkpoints="round")))
        out = tmp_path / "o"
        assert run_cli(["explore", "--config", config, "--seed", 1, "--out", out]) == 0
        models = sorted(p.name for p in next(out.glob("*/models")).iterdir())
        assert models == ["random_s0_r1_world.json", "random_s0_r2_world.json"]

        # Each checkpoint reloads to the weights behind its round's logged loss.
        from wavlab.metrics import prediction_loss
        from wavlab.models import load_model, save_model

        run_dir = only_run_dir(out)
        with open(run_dir / "rounds.csv", newline="") as fh:
            logged = [row["test_pred_loss"] for row in csv.DictReader(fh)]
        test = load(dataset).test
        for name, loss in zip(models, logged):
            wm = load_model(run_dir / "models" / name)
            assert repr(prediction_loss(wm, test)) == loss
            save_model(wm, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == (run_dir / "models" / name).read_bytes()

    def test_missing_dataset_is_an_error(self, tmp_path):
        config = tmp_path / "e.json"
        config.write_text(json.dumps(small_explore_config("nowhere.wavsplit")))
        assert run_cli(["explore", "--config", config, "--out", tmp_path / "o"]) == 2

    def test_split_loaded_once_per_run(self, dataset, tmp_path, monkeypatch):
        loads = []
        real_load = cli.datasets.load
        monkeypatch.setattr(
            cli.datasets, "load", lambda path: loads.append(path) or real_load(path)
        )
        config = tmp_path / "e.json"
        config.write_text(json.dumps(
            small_explore_config(dataset, strategies=["random"], seeds=2)))
        assert run_cli(["explore", "--config", config, "--seed", 5, "--out", tmp_path / "o"]) == 0
        assert loads == [str(dataset)]

    def test_jobs_flag_matches_serial(self, dataset, tmp_path):
        config = tmp_path / "e.json"
        config.write_text(json.dumps(small_explore_config(dataset, seeds=2)))
        assert run_cli(["explore", "--config", config, "--seed", 6,
                        "--out", tmp_path / "serial"]) == 0
        assert run_cli(["explore", "--config", config, "--seed", 6,
                        "--out", tmp_path / "par", "--jobs", 2]) == 0

        def strip_wall(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            drop = rows[0].index("wall_time_s")
            return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]

        assert strip_wall(next((tmp_path / "serial").glob("*/rounds.csv"))) == \
            strip_wall(next((tmp_path / "par").glob("*/rounds.csv")))


class TestTrain:
    def test_trains_and_checkpoints_models(self, dataset, tmp_path):
        config = tmp_path / "t.json"
        config.write_text(json.dumps({
            "dataset": str(dataset),
            "models": ["world", "idm-sparse", "subgoal"],
            "wm": {"epochs": 4, "batch_size": 32},
            "idm": {"epochs": 10},
        }))
        out = tmp_path / "o"
        assert run_cli(["train", "--config", config, "--seed", 3, "--out", out]) == 0
        run_dir = only_run_dir(out)
        names = sorted(p.name for p in (run_dir / "models").iterdir())
        assert names == ["idm-sparse.json", "subgoal.json", "world.json"]
        metrics = json.loads((run_dir / "train_metrics.json").read_text())
        assert "test_pred_loss" in metrics["world"]
        from wavlab.models import load_model
        wm = load_model(run_dir / "models" / "world.json")
        assert wm.loss_curve


class TestTheory:
    def test_default_grid_small_trials_warns_but_passes(self, tmp_path):
        config = tmp_path / "t.json"
        config.write_text(json.dumps({
            "lemma": {"trials": 10},
            "gap": {"trials": 10, "d_s_grid": [10], "n_grid": [50]},
            "sweep": {"trials": 10, "d_s_grid": [10, 16], "sigma_s_grid": [1.0, 2.0],
                      "n_grid": [40, 80]},
        }))
        out = tmp_path / "o"
        assert run_cli(["theory", "--config", config, "--seed", 2, "--out", out]) == 0
        with open(next(out.glob("*/theory_lemma.csv"))) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["low_trials"] == "1" for row in rows)

    def test_gap_csv_factorization_audit(self, tmp_path):
        config = tmp_path / "t.json"
        config.write_text(json.dumps({
            "lemma": {"trials": 2000, "grid": [[5, 30, 1.0]]},
            "gap": {"trials": 2000, "d_s_grid": [10, 20], "n_grid": [60]},
            "sweep": {"trials": 500, "d_s_grid": [10, 16], "sigma_s_grid": [1.0, 2.0],
                      "n_grid": [40, 80]},
        }))
        out = tmp_path / "o"
        # The bound checks are statistical (the default B makes the inverse
        # bound an equality), so only the table contents are asserted here.
        assert run_cli(["theory", "--config", config, "--seed", 10, "--out", out]) in (0, 1)
        with open(next(out.glob("*/theory_gap.csv"))) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            product = (float(row["factor_dim"]) * float(row["factor_stoch"])
                       * float(row["factor_sample"]))
            assert abs(product - float(row["gamma_bound"])) <= 1e-12

    def test_reruns_byte_identical(self, tmp_path):
        config = tmp_path / "t.json"
        config.write_text(json.dumps({
            "lemma": {"trials": 500},
            "gap": {"trials": 500, "d_s_grid": [10], "n_grid": [50, 100]},
            "sweep": {"trials": 300},
        }))
        blobs = []
        codes = []
        for name in ("a", "b"):
            codes.append(run_cli(["theory", "--config", config, "--seed", 11,
                                  "--out", tmp_path / name]))
            blobs.append(b"".join(
                sorted_file.read_bytes()
                for sorted_file in sorted((tmp_path / name).glob("*/theory_*.csv"))
            ))
        assert codes[0] == codes[1]
        assert blobs[0] == blobs[1]


class TestRankCorr:
    def test_emits_correlations_with_oracle_at_one(self, dataset, tmp_path):
        config = tmp_path / "rc.json"
        config.write_text(json.dumps({
            "dataset": str(dataset),
            "strategies": ["random", "oracle"],
            "seeds": 1,
            "n_candidates": 80,
            "warmup_budget": 20,
            "ensemble_size": 2,
            "wm": {"epochs": 5, "batch_size": 32},
            "idm": {"epochs": 20},
        }))
        out = tmp_path / "o"
        assert run_cli(["rank-corr", "--config", config, "--seed", 12, "--out", out]) == 0
        with open(next(out.glob("*/rank_corr.csv"))) as fh:
            rows = list(csv.DictReader(fh))
        by_strategy = {row["strategy"]: row for row in rows}
        assert float(by_strategy["oracle"]["spearman_vs_oracle"]) == 1.0
        assert abs(float(by_strategy["random"]["spearman_vs_oracle"])) < 0.5
        scatter = next(out.glob("*/score_vs_error.csv"))
        with open(scatter) as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == 2 * 80


    @staticmethod
    def _run_counting(dataset, tmp_path, monkeypatch, name, strategies):
        calls = {"train_world_model": 0, "train_idm": 0, "train_ensemble": 0}
        for fn in calls:
            def counted(*args, _fn=getattr(verify, fn), _name=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            # rank-corr trains through verify.train_models.
            monkeypatch.setattr(verify, fn, counted)
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({
            "dataset": str(dataset), "strategies": strategies, "seeds": 2,
            "n_candidates": 60, "warmup_budget": 20, "ensemble_size": 2,
            "wm": {"epochs": 5, "batch_size": 32}, "idm": {"epochs": 20},
        }))
        out = tmp_path / name
        assert run_cli(["rank-corr", "--config", config, "--seed", 13, "--out", out]) == 0
        with open(next(out.glob("*/score_vs_error.csv"))) as fh:
            rows = [row[1:] for row in csv.reader(fh)][1:]  # without run_id
        return calls, rows

    def test_trains_only_consulted_models(self, dataset, tmp_path, monkeypatch):
        calls, _ = self._run_counting(dataset, tmp_path, monkeypatch, "r", ["random"])
        # Per seed: the world model for the oracle truth, nothing else.
        assert calls == {"train_world_model": 2, "train_idm": 0, "train_ensemble": 0}

    def test_skipped_models_leave_generators_unchanged(self, dataset, tmp_path,
                                                      monkeypatch):
        calls, few = self._run_counting(dataset, tmp_path, monkeypatch, "few",
                                        ["random", "wav-sparse"])
        assert calls == {"train_world_model": 2, "train_idm": 2, "train_ensemble": 0}
        calls, many = self._run_counting(
            dataset, tmp_path, monkeypatch, "many",
            ["random", "uncertainty", "progress", "wav-sparse"],
        )
        # Per seed: wm0 and the world model; idm0, vanilla and sparse.
        assert calls == {"train_world_model": 4, "train_idm": 6, "train_ensemble": 2}
        assert few == [row for row in many if row[0] in ("random", "wav-sparse")]


class TestTlcmDemo:
    def test_writes_report_csv(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["tlcm-demo", "--seed", 0, "--out", out]) == 0
        with open(next(out.glob("*/tlcm_demo.csv"))) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["variant"] for row in rows] == ["base", "aliasing", "back-action"]
        base = rows[0]
        assert float(base["s_restricted_oos_accuracy"]) == 1.0
