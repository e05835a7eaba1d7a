"""End-to-end command-line pipeline on a miniature run directory."""

import json
import os

import numpy as np
import pytest

from stressinv.cli import main, EXIT_OK, EXIT_VALIDATION, EXIT_IO


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config = {
        "run_dir": str(root / "run"),
        "synthetic": {"n_samples": 60, "seed": 3},
        "reconstructor": {"hidden_widths": [32, 16], "epochs": 4,
                          "batch_size": 16},
        "predictors": {"knn": {"k": 3},
                       "random_forest": {"n_trees": 4, "max_depth": 5}},
        "comparison": {"kinds": ["knn", "random_forest"],
                       "modes": ["with_function", "without_function"],
                       "seeds": [0]},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return {"cfg": str(cfg_path), "root": str(root / "run")}


def invoke(run_dir, *argv):
    return main([*argv, "--config", run_dir["cfg"]])


def test_full_pipeline(run_dir):
    assert invoke(run_dir, "generate") == EXIT_OK
    assert invoke(run_dir, "preprocess") == EXIT_OK
    assert invoke(run_dir, "fit-law") == EXIT_OK
    assert invoke(run_dir, "train-reconstruct") == EXIT_OK
    assert invoke(run_dir, "compare") == EXIT_OK
    assert invoke(run_dir, "report") == EXIT_OK
    root = run_dir["root"]
    for rel in ("data/samples.csv", "data/curves.csv", "data/grid.json",
                "data/clean/samples.csv", "data/clean/filter_report.json",
                "reports/strength_law.json", "checkpoints/reconstructor.json",
                "checkpoints/history.csv", "reports/reconstruction_eval.json",
                "reports/comparison.csv", "reports/timings.csv",
                "reports/aggregates.csv", "manifest.json"):
        assert os.path.exists(os.path.join(root, rel)), rel
    rows = open(os.path.join(root, "reports/comparison.csv")).read().splitlines()
    assert len(rows) == 1 + 2 * 2 * 1  # kinds x modes x seeds
    examples = [n for n in os.listdir(os.path.join(root, "plots"))
                if n.startswith("example_")]
    assert len(examples) == 5


def test_fitted_alpha_close_to_planted(run_dir):
    root = run_dir["root"]
    law = json.load(open(os.path.join(root, "reports/strength_law.json")))
    manifest = json.load(open(os.path.join(root,
                                           "data/dataset_manifest.json")))
    got = np.asarray(law["alpha"])
    planted = np.asarray(manifest["planted_alpha"])
    assert np.max(np.abs(got - planted)) < 0.1


def test_generate_refuses_overwrite_then_force(run_dir):
    assert invoke(run_dir, "generate") == EXIT_VALIDATION
    before = open(os.path.join(run_dir["root"], "data/samples.csv"),
                  "rb").read()
    assert invoke(run_dir, "generate", "--force") == EXIT_OK
    after = open(os.path.join(run_dir["root"], "data/samples.csv"),
                 "rb").read()
    assert before == after  # same seed -> byte-identical regeneration


def test_compare_output_bytes_stable_across_runs_and_jobs(run_dir):
    path = os.path.join(run_dir["root"], "reports/comparison.csv")
    first = open(path, "rb").read()
    assert invoke(run_dir, "compare") == EXIT_OK
    assert open(path, "rb").read() == first
    assert invoke(run_dir, "compare", "--jobs", "4") == EXIT_OK
    assert open(path, "rb").read() == first


def test_missing_prerequisites_exit_io(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"run_dir": str(tmp_path / "empty")}))
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_IO
    assert main(["compare", "--config", str(cfg)]) == EXIT_IO


def test_preprocess_short_long_format_row_exits_validation(tmp_path, capsys):
    data_dir = tmp_path / "run" / "data"
    data_dir.mkdir(parents=True)
    (data_dir / "samples.csv").write_text("id,m0,m1,m2,m3\ns1,0.1,0.2,0.3,0.4\n")
    curves = data_dir / "curves.csv"
    curves.write_text("id,strain,stress\ns1,0.0,0.0\ns1,0.2\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"run_dir": str(tmp_path / "run")}))
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_VALIDATION
    assert f"{curves}:3: expected 3 cells" in capsys.readouterr().err


@pytest.mark.parametrize("samples_text, curves_text, bad", [
    # blank line in samples.csv
    ("id,m0,m1,m2,m3\ns1,0.1,0.2,0.3,0.4\n\n", "wide", "samples:3: expected 5 cells"),
    # short samples.csv row
    ("id,m0,m1,m2,m3\ns1,0.1,0.2,0.3,0.4\ns2,0.1\n", "wide",
     "samples:3: expected 5 cells"),
    # blank line in a wide curves.csv
    ("id,m0,m1,m2,m3\ns1,0.1,0.2,0.3,0.4\n", "wide+blank",
     "curves:3: expected 101 cells"),
], ids=["samples_blank_line", "samples_short_row", "curves_blank_line"])
def test_preprocess_malformed_row_exits_validation(tmp_path, capsys, samples_text,
                                                   curves_text, bad):
    data_dir = tmp_path / "run" / "data"
    data_dir.mkdir(parents=True)
    paths = {"samples": data_dir / "samples.csv", "curves": data_dir / "curves.csv"}
    paths["samples"].write_text(samples_text)
    header = "id," + ",".join(f"s{j:03d}" for j in range(1, 101))
    row = "s1," + ",".join(["1.0"] * 100)
    blank = "\n" if curves_text == "wide+blank" else ""
    paths["curves"].write_text(f"{header}\n{row}\n{blank}")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"run_dir": str(tmp_path / "run")}))
    assert main(["preprocess", "--config", str(cfg)]) == EXIT_VALIDATION
    name, text = bad.split(":", 1)
    assert f"{paths[name]}:{text}" in capsys.readouterr().err


def test_fit_law_without_preprocess_exits_io(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"run_dir": str(tmp_path / "empty")}))
    assert main(["fit-law", "--config", str(cfg)]) == EXIT_IO


def test_bad_config_key_exits_validation(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"run_dirr": "x"}))
    assert main(["generate", "--config", str(cfg)]) == EXIT_VALIDATION


def test_bad_predictor_kind_exits_validation(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"predictors": {"svm": {}}}))
    assert main(["generate", "--config", str(cfg)]) == EXIT_VALIDATION


def test_unknown_command_rejected_by_parser():
    with pytest.raises(SystemExit):
        main(["transmogrify"])


def test_run_dir_override(tmp_path, run_dir):
    override = str(tmp_path / "elsewhere")
    assert main(["generate", "--config", run_dir["cfg"],
                 "--run-dir", override]) == EXIT_OK
    assert os.path.exists(os.path.join(override, "data", "samples.csv"))


def test_seed_override_changes_data(tmp_path, run_dir):
    override = str(tmp_path / "seeded")
    assert main(["generate", "--config", run_dir["cfg"], "--run-dir", override,
                 "--seed", "99"]) == EXIT_OK
    a = open(os.path.join(override, "data/samples.csv"), "rb").read()
    b = open(os.path.join(run_dir["root"], "data/samples.csv"), "rb").read()
    assert a != b
