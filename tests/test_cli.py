import json
import os

import pytest

from marginlab import cli, harness


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


def test_negative_seeds_are_usage_errors(config_path, tmp_path, capsys):
    # a seed below 0, in the config or from --seed, is refused before any
    # sampling, not raised by numpy or written into a row
    with open(config_path) as fh:
        cfg = json.load(fh)
    out = os.path.join(tmp_path, "out.csv")
    for command, seed in (("gen", "-1"), ("gap", "-2"), ("sweep", "-1"),
                          ("train", "-3")):
        assert cli.main([command, "--config", config_path, "--seed", seed,
                         "--out", out]) == cli.EXIT_USAGE
        assert f"error: seed must be >= 0, got {seed}" in \
            capsys.readouterr().err
    assert not os.path.exists(out)
    bad = os.path.join(tmp_path, "bad.json")
    with open(bad, "w") as fh:
        json.dump(dict(cfg, seed=-1), fh)
    for command in ("gen", "gap", "sweep", "train", "eval"):
        assert cli.main([command, "--config", bad]) == cli.EXIT_USAGE
        assert "error: seed must be >= 0" in capsys.readouterr().err


def test_unknown_kernel_and_loss_are_usage_errors(config_path, tmp_path,
                                                  capsys):
    with open(config_path) as fh:
        cfg = json.load(fh)
    bad = os.path.join(tmp_path, "bad.json")
    for key, value, message in (("kernel", "foo", "unknown kernel 'foo'"),
                                ("loss", "bar", "unknown loss 'bar'")):
        with open(bad, "w") as fh:
            json.dump(dict(cfg, **{key: value}), fh)
        for command in ("gen", "gap", "sweep", "train", "eval"):
            assert cli.main([command, "--config", bad]) == cli.EXIT_USAGE
            assert f"error: {message}" in capsys.readouterr().err
        # a list of configs is checked config by config
        with open(bad, "w") as fh:
            json.dump([cfg, dict(cfg, **{key: value})], fh)
        assert cli.main(["sweep", "--config", bad]) == cli.EXIT_USAGE
        assert f"error: {message}" in capsys.readouterr().err


def test_unread_kernel_params_and_negative_C_are_usage_errors(
        config_path, tmp_path, capsys):
    # a misspelled kernel parameter would train at the default while the
    # config carried the typo, and C < 0 would fail every trial as a row
    with open(config_path) as fh:
        cfg = json.load(fh)
    bad = os.path.join(tmp_path, "bad.json")
    out = os.path.join(tmp_path, "out.csv")
    for change, message in (
            (dict(kernel_params={"sigm": 0.3}),
             "kernel 'rbf' takes no parameter 'sigm'"),
            (dict(kernel="linear", kernel_params={"degree": 3}),
             "kernel 'linear' takes no parameter 'degree'"),
            (dict(C=-1.0), "C must be >= 0, got -1.0")):
        with open(bad, "w") as fh:
            json.dump(dict(cfg, **change), fh)
        for command in ("gen", "gap", "sweep", "train", "eval"):
            assert cli.main([command, "--config", bad, "--out", out]) == \
                cli.EXIT_USAGE
            assert f"error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)


def test_incomplete_model_json_is_usage_error(config_path, tmp_path, capsys):
    model_path = os.path.join(tmp_path, "model.json")
    assert cli.main(["train", "--config", config_path,
                     "--out", model_path]) == cli.EXIT_OK
    model = json.load(open(model_path))
    partial = os.path.join(tmp_path, "partial.json")
    for key in cli.MODEL_KEYS:
        with open(partial, "w") as fh:
            json.dump({k: v for k, v in model.items() if k != key}, fh)
        assert cli.main(["eval", "--config", config_path,
                         "--model", partial]) == cli.EXIT_USAGE
        assert f"error: model JSON lacks {key}" in capsys.readouterr().err
    with open(partial, "w") as fh:
        json.dump(dict(model, config=dict(model["config"], kernel="foo")), fh)
    assert cli.main(["eval", "--config", config_path,
                     "--model", partial]) == cli.EXIT_USAGE
    assert "error: unknown kernel 'foo'" in capsys.readouterr().err


def test_bad_command_is_usage_error():
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE


def test_bad_thread_counts_are_usage_errors(config_path, tmp_path,
                                            monkeypatch, capsys):
    # a thread count below 1, given or from MGL_THREADS, and an MGL_THREADS
    # that is no integer are usage errors, not a traceback or a silent
    # serial run; a command that takes no threads does not read MGL_THREADS
    for threads in ("0", "-2"):
        assert cli.main(["sweep", "--config", config_path,
                         "--threads", threads]) == cli.EXIT_USAGE
        assert "threads must be >= 1" in capsys.readouterr().err
        monkeypatch.setenv("MGL_THREADS", threads)
        assert cli.main(["sweep", "--config", config_path]) == cli.EXIT_USAGE
        assert "threads must be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("MGL_THREADS", "abc")
    assert cli.main(["sweep", "--config", config_path]) == cli.EXIT_USAGE
    assert "error: MGL_THREADS must be an integer" in capsys.readouterr().err
    out = os.path.join(tmp_path, "rows.csv")
    assert cli.main(["sweep", "--config", config_path, "--threads", "2",
                     "--out", out]) == cli.EXIT_OK
    assert cli.main(["verify", "--suite", "orthopoly",
                     "--out", os.path.join(tmp_path, "v.json")]) == cli.EXIT_OK
    with open(config_path) as fh:
        config = harness.ExperimentConfig(**json.load(fh))
    with pytest.raises(harness.UsageError):
        harness.sweep([config], threads=0)


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
