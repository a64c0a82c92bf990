import json
import os

import pytest

from marginlab import cli


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "d": 8, "gamma": 0.02, "theta": 0.7, "lambda3": 0.05,
        "kernel": "rbf", "kernel_params": {"sigma": 2.0}, "C": 3.0,
        "loss": "hinge", "n_train": 100, "n_test": 200, "n_seeds": 1,
        "seed": 1, "max_iters": 50, "n_restarts": 3,
    }
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def test_missing_config_is_usage_error(capsys):
    assert cli.main(["sweep"]) == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_empty_schedule_is_usage_error(config_path, capsys):
    with open(config_path) as fh:
        cfg = json.load(fh)
    for key in ("max_iters", "n_restarts"):
        with open(config_path, "w") as fh:
            json.dump(dict(cfg, **{key: 0}), fh)
        for command in ("train", "sweep"):
            assert cli.main([command, "--config", config_path]) == \
                cli.EXIT_USAGE
            assert "max_iters and n_restarts" in capsys.readouterr().err


def test_removed_noise_atom_keys_are_usage_errors(config_path, tmp_path,
                                                 capsys):
    # config and model JSON from before the noise-atom component was
    # deleted carries lambdaN and noise_atoms_csv; both are refused by name
    with open(config_path) as fh:
        cfg = json.load(fh)
    model_path = os.path.join(tmp_path, "model.json")
    assert cli.main(["train", "--config", config_path,
                     "--out", model_path]) == cli.EXIT_OK
    model = json.load(open(model_path))
    old_config = os.path.join(tmp_path, "old_cfg.json")
    old_model = os.path.join(tmp_path, "old_model.json")
    for key, value in (("lambdaN", 0.0), ("noise_atoms_csv", None)):
        with open(old_config, "w") as fh:
            json.dump(dict(cfg, **{key: value}), fh)
        for command in ("gap", "sweep", "train"):
            assert cli.main([command, "--config", old_config]) == \
                cli.EXIT_USAGE
            assert key in capsys.readouterr().err
        with open(old_model, "w") as fh:
            json.dump(dict(model, config=dict(model["config"],
                                              **{key: value})), fh)
        assert cli.main(["eval", "--config", config_path,
                         "--model", old_model]) == cli.EXIT_USAGE
        assert key in capsys.readouterr().err


def test_bad_command_is_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_gen_writes_dataset(config_path, tmp_path):
    out = os.path.join(tmp_path, "data.csv")
    assert cli.main(["gen", "--config", config_path, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == ",".join([f"x{i}" for i in range(8)] + ["label"])
    assert len(lines) == 101


def test_train_eval_roundtrip(config_path, tmp_path):
    model_path = os.path.join(tmp_path, "model.json")
    assert cli.main(["train", "--config", config_path,
                     "--out", model_path]) == cli.EXIT_OK
    doc = json.load(open(model_path))
    assert {"alpha", "b", "C", "support", "config"} <= set(doc)

    out = os.path.join(tmp_path, "eval.json")
    assert cli.main(["eval", "--config", config_path, "--model", model_path,
                     "--out", out]) == 0
    metrics = json.load(open(out))
    assert 0.0 <= metrics["err01"] <= 1.0
    assert metrics["err_margin_certified"] > 0.0
    # without --model, eval trains the same model on the same data
    fresh = os.path.join(tmp_path, "eval_fresh.json")
    assert cli.main(["eval", "--config", config_path, "--out", fresh]) == 0
    assert json.load(open(fresh)) == metrics


def test_gap_csv_output(config_path, tmp_path):
    out = os.path.join(tmp_path, "gap.csv")
    assert cli.main(["gap", "--config", config_path, "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("config_id,seed,gamma")
    assert len(lines) == 2
    # --format json prints the same trial rows
    out_json = os.path.join(tmp_path, "gap.json")
    assert cli.main(["gap", "--config", config_path, "--format", "json",
                     "--out", out_json]) == 0
    row = json.load(open(out_json))["rows"][0]
    header = lines[0].split(",")
    assert repr(row["gap_ratio"]) == lines[1].split(",")[header.index("gap_ratio")]
    assert row["gap_ratio"] >= row["ratio"]


def test_sweep_reproducible_across_threads(config_path, tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    assert cli.main(["sweep", "--config", config_path, "--threads", "1",
                     "--out", a]) == 0
    assert cli.main(["sweep", "--config", config_path, "--threads", "4",
                     "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_seed_override_changes_rows(config_path, tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    cli.main(["sweep", "--config", config_path, "--out", a])
    cli.main(["sweep", "--config", config_path, "--seed", "99", "--out", b])
    assert open(a).read() != open(b).read()


def test_verify_exit_codes(tmp_path, capsys):
    out = os.path.join(tmp_path, "verify.json")
    assert cli.main(["verify", "--suite", "orthopoly", "--out", out]) == 0
    report = json.load(open(out))
    assert all(c["passed"] for c in report["orthopoly"])
    assert cli.main(["verify", "--suite", "nope"]) == cli.EXIT_USAGE
