"""Command-line contract: config replay and exit codes.

Exit code 2 marks a configuration fault, 1 a data fault, and replaying a
run's ``<out>.config`` reproduces its outputs byte for byte.
"""

import os

import numpy as np
import pytest

from bloomemb import cbe, cli, codec, experiment, hashing

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


def write_instances(path) -> list[list[int]]:
    """Instances over 40 items that all hold items 1 and 2, so that CBE
    selects the pair (2, 1); the empty line is the empty instance."""
    rng = np.random.default_rng(7)
    sets = [[1, 2, *sorted(rng.choice(np.arange(3, 41), size=3, replace=False)
                           .tolist())] for _ in range(30)] + [[]]
    path.write_text("".join(" ".join(map(str, s)) + "\n" for s in sets))
    return sets


def test_build_hash_encode_decode_round_trip(tmp_path):
    h, bits, scores = (str(tmp_path / name) for name in ("h.bin", "bits", "tsv"))
    instances = tmp_path / "instances.txt"
    sets = write_instances(instances)
    assert cli.main(["build-hash", "--d", "40", "--m", "16", "--k", "3",
                     "--seed", "4", "--format", "binary", "--out", h]) == 0
    assert cli.main(["encode", "--hash", h, "--instances", str(instances),
                     "--out", bits]) == 0
    assert cli.main(["decode", "--hash", h, "--embeddings", bits,
                     "--out", scores]) == 0
    for out in (h, bits, scores):
        assert os.path.exists(out + ".config")
    header, *lines = open(scores).read().splitlines()
    assert header == "instance\titem\tscore"
    score = {(int(i), int(item)): float(s)
             for i, item, s in (line.split("\t") for line in lines)}
    assert len(score) == len(sets) * 40
    # a Bloom embedding has no false negatives: every member decodes to 1
    assert all(score[i, item] == 1.0 for i, s in enumerate(sets) for item in s)


def test_cbe_command_matches_the_library(tmp_path):
    h, out, stats = (str(tmp_path / name) for name in ("h.txt", "cbe.txt", "tsv"))
    instances = tmp_path / "instances.txt"
    write_instances(instances)
    assert cli.main(["build-hash", "--d", "40", "--m", "16", "--k", "3",
                     "--out", h]) == 0
    assert cli.main(["cbe", "--hash", h, "--instances", str(instances),
                     "--seed", "5", "--out", out, "--stats-out", stats]) == 0
    table = cbe.count_cooccurrences(codec.read_instances(instances, 40))
    pairs = cbe.threshold_and_order(table)
    assert len(pairs)
    expected = cbe.rebuild_hash_matrix(hashing.load_hash_matrix(h), pairs, 5)
    assert np.array_equal(hashing.load_hash_matrix(out).rows, expected.rows)
    assert open(stats).readline() == \
        "side\tpercent_cooccurring_pairs\tmean_ratio_rho\n"
    assert os.path.exists(out + ".config")


def test_evaluate_scores_like_run_experiment_on_the_logged_config(tmp_path):
    model, out = str(tmp_path / "be.model"), str(tmp_path / "eval.tsv")
    assert cli.main(["train", *TINY, "--m", "40", "--out", model]) == 0
    assert cli.main(["evaluate", "--config", model + ".config",
                     "--model", model, "--out", out]) == 0
    header, row = open(out).read().splitlines()
    assert header == "measure\tscore\tn_evaluated\tseconds"
    cfg = experiment.config_from_text(open(model + ".config").read())
    score = experiment.run_experiment(cfg).evaluation.score
    assert row.split("\t")[1] == f"{score:.10g}"
    assert os.path.exists(out + ".config")


def test_sweep_writes_one_row_per_cell(tmp_path):
    out = str(tmp_path / "sweep.tsv")
    assert cli.main(["sweep", *TINY, "--m-ratios", "0.1,0.2", "--k-values", "2",
                     "--out", out]) == 0
    header, *rows = open(out).read().splitlines()
    assert header.split("\t") == list(experiment.SWEEP_COLUMNS)
    assert [tuple(row.split("\t")[1:5]) for row in rows] == [
        ("baseline", "1", "1", "0"), ("be", "2", "0.1", "0"),
        ("be", "2", "0.2", "0")]
    assert os.path.exists(out + ".config")


@pytest.mark.parametrize("command,flags", [
    ("encode", ["--instances", "x"]), ("decode", ["--embeddings", "x"]),
    ("cbe", ["--instances", "x", "--stats-out", "s"])])
def test_missing_hash_file_is_a_data_fault(tmp_path, command, flags):
    assert cli.main([command, "--hash", str(tmp_path / "no-such-hash"), *flags,
                     "--out", str(tmp_path / "out")]) == 1


def test_m_above_d_is_a_config_fault(tmp_path):
    out = str(tmp_path / "model")
    assert cli.main(["train", *TINY, "--m", "300", "--out", out]) == 2


def test_missing_data_file_is_a_data_fault(tmp_path, capsys):
    out = str(tmp_path / "model")
    missing = str(tmp_path / "no-such-file.txt")
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"u1 \xff 1\nu1 2 2\n")
    # short profiles that the auto sniff reads as triples, the last row
    # without a timestamp
    short = tmp_path / "short-profiles.txt"
    short.write_text("10 20 30\n10 40 50\n60 70\n")
    for path, message in [
            (missing, f"[Errno 2] No such file or directory: {missing!r}"),
            (str(not_utf8), f"{not_utf8}: not UTF-8 text (byte 3)"),
            (str(short), "line 3: no timestamp, unlike line 1; as triples "
                         "(data_format 'auto'), every row or none has one")]:
        assert cli.main(["train", "--data", path, "--m", "40",
                         "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]


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


# each fault is decided before any training: by building the config, or by
# checking it against the loaded data (top_n above TINY's d = 200)
CONFIG_FAULTS = {
    "batch-size-0": ["train", "--batch-size", "0"],
    "batch-size-negative": ["train", "--batch-size", "-5"],
    "epochs-negative": ["train", "--epochs", "-1"],
    "lr-negative": ["train", "--lr", "-1"],
    "hidden-0": ["train", "--hidden", "0"],
    "hidden-abc": ["train", "--hidden", "abc"],
    "hidden-trailing-comma": ["train", "--hidden", "100,"],
    "n-clusters-0": ["train", "--n-clusters", "0"],
    "d-1": ["train", "--d", "1"],
    "noise-2": ["train", "--noise", "2"],
    "file-optimizer": ["train", "--config", "optimizer=foo"],
    "file-beta1": ["train", "--config", "beta1=1.5"],
    "sweep-batch-size-0": ["sweep", "--batch-size", "0", "--m-ratios", "0.2",
                           "--k-values", "2"],
    "top-n-above-d": ["train", "--top-n", "201"],
}


@pytest.mark.parametrize("argv", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS)
def test_config_fault_exits_2_before_training(tmp_path, monkeypatch, capsys,
                                              argv):
    command, *flags = argv
    if flags[0] == "--config":
        (tmp_path / "run.config").write_text(flags[1] + "\n")
        flags = ["--config", str(tmp_path / "run.config")]
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    capsys.readouterr()
    assert cli.main([command, *TINY, "--m", "40", *flags,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: "), err
    assert sorted(tmp_path.iterdir()) == before
