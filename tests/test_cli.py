"""Command-line contract: config replay and exit codes.

Exit code 2 marks a configuration fault, 1 a data fault, and replaying a
run's ``<out>.config`` reproduces its outputs byte for byte.
"""

import os

import pytest

from bloomemb import cli, experiment

TINY = ["--synthetic", "--d", "200", "--n", "500", "--epochs", "2"]


def test_train_config_replay_is_byte_identical(tmp_path):
    first = str(tmp_path / "first.model")
    second = str(tmp_path / "second.model")
    assert cli.main(["train", *TINY, "--m", "40", "--out", first]) == 0
    assert cli.main(["train", "--config", first + ".config",
                     "--out", second]) == 0
    for suffix in ("", ".hash-in", ".hash-out"):
        with open(first + suffix, "rb") as a, open(second + suffix, "rb") as b:
            assert a.read() == b.read(), suffix
    with open(first + ".config") as a, open(second + ".config") as b:
        assert a.read() == b.read()


def test_m_above_d_is_a_config_fault(tmp_path):
    out = str(tmp_path / "model")
    assert cli.main(["train", *TINY, "--m", "300", "--out", out]) == 2


def test_missing_data_file_is_a_data_fault(tmp_path, capsys):
    out = str(tmp_path / "model")
    missing = str(tmp_path / "no-such-file.txt")
    assert cli.main(["train", "--data", missing, "--m", "40",
                     "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"data error: [Errno 2] No such file or directory: {missing!r}"]


def test_build_hash_with_k_above_m_is_a_config_fault(tmp_path):
    out = str(tmp_path / "h.txt")
    assert cli.main(["build-hash", "--d", "10", "--m", "4", "--k", "5",
                     "--out", out]) == 2


def test_evaluate_without_hash_matrices_is_a_config_fault(tmp_path):
    model = str(tmp_path / "baseline.model")
    assert cli.main(["train", *TINY, "--baseline", "--out", model]) == 0
    assert cli.main(["evaluate", *TINY, "--model", model]) == 2


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the config was checked")


@pytest.mark.parametrize("top_n", ["0", "-3", "201"])
def test_evaluate_top_n_outside_item_range_is_a_config_fault(tmp_path,
                                                             monkeypatch, top_n):
    model = str(tmp_path / "baseline.model")
    assert cli.main(["train", *TINY, "--baseline", "--out", model]) == 0
    monkeypatch.setattr(experiment, "evaluate_model", _must_not_run)
    assert cli.main(["evaluate", *TINY, "--baseline", "--model", model,
                     "--top-n", top_n]) == 2


@pytest.mark.parametrize("top_n", ["0", "500"])
def test_sweep_top_n_outside_item_range_is_a_config_fault(tmp_path,
                                                          monkeypatch, top_n):
    out = str(tmp_path / "sweep.tsv")
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    assert cli.main(["sweep", *TINY, "--m-ratios", "0.2", "--k-values", "2",
                     "--top-n", top_n, "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("k_values", ["0", "300"])
def test_sweep_k_outside_item_range_is_a_config_fault(tmp_path, monkeypatch,
                                                      k_values):
    out = str(tmp_path / "sweep.tsv")
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    assert cli.main(["sweep", *TINY, "--m-ratios", "0.2", "--k-values", k_values,
                     "--out", out]) == 2
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def baseline_model(tmp_path_factory):
    model = str(tmp_path_factory.mktemp("cli") / "baseline.model")
    assert cli.main(["train", *TINY, "--baseline", "--out", model]) == 0
    return model


def _run_without_work(command, test_size, out, model, monkeypatch) -> int:
    """Exit code of `command` at `test_size`, failing if training or
    evaluation starts."""
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    monkeypatch.setattr(experiment, "evaluate_model", _must_not_run)
    extra = {"train": ["--m", "40", "--out", out],
             "sweep": ["--m-ratios", "0.2", "--k-values", "2", "--out", out],
             "evaluate": ["--baseline", "--model", model, "--out", out]}
    return cli.main([command, *TINY, "--test-size", test_size, *extra[command]])


@pytest.mark.parametrize("command,test_size", [
    ("train", "1.0"), ("train", "0"), ("train", "-0.5"), ("sweep", "0"),
    ("evaluate", "0")])
def test_test_size_outside_unit_interval_is_a_config_fault(
        tmp_path, monkeypatch, baseline_model, command, test_size):
    out = str(tmp_path / "out")
    assert _run_without_work(command, test_size, out, baseline_model,
                             monkeypatch) == 2
    assert not os.path.exists(out)


# of TINY's 500 profiles, 0.999 holds out round(499.5) = 500, 0.0009 none
@pytest.mark.parametrize("command,test_size", [
    ("train", "0.999"), ("evaluate", "0.0009")])
def test_test_size_that_empties_a_split_is_a_config_fault(
        tmp_path, monkeypatch, capsys, baseline_model, command, test_size):
    out = str(tmp_path / "out")
    capsys.readouterr()
    assert _run_without_work(command, test_size, out, baseline_model,
                             monkeypatch) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: test_size {test_size} leaves no training or no test "
        f"profiles"]
    assert not os.path.exists(out)
