"""Command-line contract: config replay and exit codes.

Exit code 2 marks a configuration fault, 1 a data fault, and replaying a
run's ``<out>.config`` reproduces its outputs byte for byte.
"""

from bloomemb import cli

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


def test_missing_data_file_is_a_data_fault(tmp_path):
    out = str(tmp_path / "model")
    missing = str(tmp_path / "no-such-file.txt")
    assert cli.main(["train", "--data", missing, "--m", "40",
                     "--out", out]) == 1


def test_build_hash_with_k_above_m_is_a_config_fault(tmp_path):
    out = str(tmp_path / "h.txt")
    assert cli.main(["build-hash", "--d", "10", "--m", "4", "--k", "5",
                     "--out", out]) == 2


def test_evaluate_without_hash_matrices_is_a_config_fault(tmp_path):
    model = str(tmp_path / "baseline.model")
    assert cli.main(["train", *TINY, "--baseline", "--out", model]) == 0
    assert cli.main(["evaluate", *TINY, "--model", model]) == 2
