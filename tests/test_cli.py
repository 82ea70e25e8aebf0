"""Command-line contract: config replay and exit codes.

Exit code 2 marks a configuration fault, 1 a data fault, and replaying a
run's ``<out>.config`` reproduces its outputs byte for byte.
"""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bloomemb import cbe, cli, codec, experiment, trainer

TINY = ["--data", "none", "--d", "200", "--n", "500", "--epochs", "2"]


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
    header, *lines = Path(scores).read_text().splitlines()
    assert header == "instance\titem\tscore"
    score = {(int(i), int(item)): float(s)
             for i, item, s in (line.split("\t") for line in lines)}
    assert len(score) == len(sets) * 40
    # a Bloom embedding has no false negatives: every member decodes to 1
    assert all(score[i, item] == 1.0 for i, s in enumerate(sets) for item in s)


@pytest.fixture(scope="module")
def simple_inputs(tmp_path_factory):
    """A binary hash matrix over 40 items, an instance file, its encoding, a
    file of probability vectors of width m = 16, and a model trained on
    TINY at m = 40."""
    tmp = tmp_path_factory.mktemp("simple")
    h, bits, probs = (str(tmp / name) for name in ("h.bin", "bits", "probs"))
    instances = tmp / "instances.txt"
    write_instances(instances)
    assert cli.main(["build-hash", "--d", "40", "--m", "16", "--k", "3",
                     "--format", "binary", "--out", h]) == 0
    assert cli.main(["encode", "--hash", h, "--instances", str(instances),
                     "--out", bits]) == 0
    rows = np.random.default_rng(3).random((5, 16))
    Path(probs).write_text("".join(" ".join(map(repr, r)) + "\n"
                                   for r in rows.tolist()))
    model = str(tmp / "tiny.model")
    assert cli.main(["train", *TINY, "--m", "40", "--out", model]) == 0
    return {"hash": h, "instances": str(instances), "bits": bits, "probs": probs,
            "model": model}


SIMPLE_RUNS = {
    "build-hash-binary": lambda f: ["build-hash", "--d", "40", "--m", "16", "--k",
                                    "3", "--seed", "9", "--format", "binary"],
    "encode": lambda f: ["encode", "--hash", f["hash"], "--instances",
                         f["instances"]],
    "decode-embeddings": lambda f: ["decode", "--hash", f["hash"], "--embeddings",
                                    f["bits"], "--top-n", "7"],
    "decode-probs": lambda f: ["decode", "--hash", f["hash"], "--probs",
                               f["probs"], "--decode", "nll"],
    "cbe": lambda f: ["cbe", "--hash", f["hash"], "--instances", f["instances"],
                      "--seed", "5"],
    "train": lambda f: ["train", *TINY, "--m", "40"],
    "evaluate": lambda f: ["evaluate", *TINY, "--m", "40", "--model", f["model"]],
    "sweep": lambda f: ["sweep", *TINY, "--m-ratios", "0.1,0.2", "--k-values",
                        "2"],
}
WALL_TIME_COLUMNS = ("seconds", "train_time_ratio", "eval_time_ratio")


def without_wall_times(path) -> list[list[str]]:
    header, *rows = (line.split("\t") for line in Path(path).read_text().splitlines())
    keep = [i for i, name in enumerate(header) if name not in WALL_TIME_COLUMNS]
    return [[row[i] for i in keep] for row in (header, *rows)]


@pytest.mark.parametrize("run", SIMPLE_RUNS.values(), ids=SIMPLE_RUNS)
def test_simple_command_config_replay_is_byte_identical(tmp_path, simple_inputs,
                                                        run):
    """Every subcommand replays its own .config: evaluate and sweep to the
    same TSV wall times aside, the others to the same bytes."""
    command, *flags = run(simple_inputs)
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert cli.main([command, *flags, "--out", first]) == 0
    assert Path(first + ".config").read_text().startswith("#")
    assert cli.main([command, "--config", first + ".config",
                     "--out", second]) == 0
    assert_same_outputs(command, first, second)


def assert_same_outputs(command: str, first: str, second: str) -> None:
    """The runs to `first` and `second` wrote the same files, TSV wall times
    aside, and logged the same .config."""
    if command in ("evaluate", "sweep"):
        assert without_wall_times(first) == without_wall_times(second)
    else:
        assert Path(first).read_bytes() == Path(second).read_bytes()
    for suffix in {"train": (".hash-in", ".hash-out"),
                   "cbe": (".stats.tsv",)}.get(command, ()):
        assert Path(first + suffix).read_bytes() == \
            Path(second + suffix).read_bytes(), suffix
    assert Path(first + ".config").read_text() == \
        Path(second + ".config").read_text()


def test_config_replay_keeps_a_hash_sign_inside_a_value(tmp_path, simple_inputs,
                                                      monkeypatch):
    """Only a line that starts with ``#`` is a comment: a path holding one
    replays whole."""
    monkeypatch.chdir(tmp_path)
    Path("a#b").mkdir()
    assert cli.main(["build-hash", "--d", "40", "--m", "16", "--k", "3",
                     "--out", "a#b/h.txt"]) == 0
    assert cli.main(["encode", "--hash", "a#b/h.txt", "--instances",
                     simple_inputs["instances"], "--out", "first"]) == 0
    assert "hash=a#b/h.txt\n" in Path("first.config").read_text()
    assert cli.main(["encode", "--config", "first.config", "--out", "second"]) == 0
    assert_same_outputs("encode", "first", "second")


# .config files as the previous release wrote them: two other headers, and
# the flags that are not ExperimentConfig fields spelled with dashes
OLD_CONFIGS = {
    "decode-embeddings": "# bloomemb resolved flags\nhash={hash}\n"
                         "embeddings={bits}\ndecode=likelihood\ntop-n=7\n",
    "sweep": """\
# bloomemb experiment config
data_path=none
data_format=auto
min_item_count=1
min_profile_size=2
rating_threshold=none
d=200
n=500
n_clusters=50
profile_size_min=4
profile_size_max=12
noise=0.05
data_seed=0
test_size=0.1
baseline=false
m_in=400
m_out=400
k=4
hash_seed_in=1
hash_seed_out=2
use_cbe=false
cbe_seed=3
hidden=100
init_seed=0
optimizer=adam
learning_rate=0.001
momentum=0.9
beta1=0.9
beta2=0.999
clip_norm=none
epochs=2
batch_size=128
shuffle_seed=0
decode_mode=likelihood
measure=MAP
top_n=none
m-ratios=0.1,0.2
k-values=2
seeds=0
parallel=1
""",
}


@pytest.mark.parametrize("run", OLD_CONFIGS)
def test_config_of_the_previous_format_replays(tmp_path, simple_inputs, run):
    """An old .config replays to the outputs and the .config of the
    SIMPLE_RUNS run it logged."""
    command, *flags = SIMPLE_RUNS[run](simple_inputs)
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    old = tmp_path / "old.config"
    old.write_text(OLD_CONFIGS[run].format(**simple_inputs))
    assert cli.main([command, *flags, "--out", first]) == 0
    assert cli.main([command, "--config", str(old), "--out", second]) == 0
    assert Path(second + ".config").read_text().startswith("# bloomemb config\n")
    assert_same_outputs(command, first, second)


def test_cbe_command_matches_the_library(tmp_path):
    h, out = (str(tmp_path / name) for name in ("h.txt", "cbe.txt"))
    instances = tmp_path / "instances.txt"
    write_instances(instances)
    assert cli.main(["build-hash", "--d", "40", "--m", "16", "--k", "3",
                     "--out", h]) == 0
    assert cli.main(["cbe", "--hash", h, "--instances", str(instances),
                     "--seed", "5", "--out", out]) == 0
    table = cbe.count_cooccurrences(codec.read_instances(instances.read_text(), 40))
    pairs = cbe.threshold_and_order(table)
    assert len(pairs)
    matrix = codec.matrix_from_bytes(Path(h).read_bytes())
    expected = cbe.rebuild_hash_matrix(matrix, pairs, 5)
    assert np.array_equal(codec.matrix_from_bytes(Path(out).read_bytes()).rows,
                          expected.rows)
    assert Path(out + ".stats.tsv").read_text().startswith(
        "side\tpercent_cooccurring_pairs\tmean_ratio_rho\n")
    assert os.path.exists(out + ".config")


@pytest.mark.parametrize("variant", [[], ["--baseline"], ["--cbe"]],
                         ids=["be", "baseline", "cbe"])
def test_evaluate_scores_like_run_experiment_on_the_logged_config(tmp_path,
                                                                  variant):
    model, out = str(tmp_path / "run.model"), str(tmp_path / "eval.tsv")
    assert cli.main(["train", *TINY, "--m", "40", *variant, "--out", model]) == 0
    assert cli.main(["evaluate", "--config", model + ".config",
                     "--model", model, "--out", out]) == 0
    header, row = Path(out).read_text().splitlines()
    assert header == "measure\tscore\tn_evaluated\tseconds"
    args = cli.build_parser().parse_args(
        cli._with_config(["train", "--config", model + ".config", "--out", model]))
    cfg = cli._resolve_config(args)
    score = experiment.run_experiment(cfg).evaluation.score
    assert row.split("\t")[1] == f"{score:.10g}"
    assert os.path.exists(out + ".config")


def test_sweep_writes_one_row_per_cell(tmp_path):
    out = str(tmp_path / "sweep.tsv")
    assert cli.main(["sweep", *TINY, "--m-ratios", "0.1,0.2", "--k-values", "2",
                     "--out", out]) == 0
    header, *rows = Path(out).read_text().splitlines()
    assert header.split("\t") == list(experiment.SWEEP_COLUMNS)
    assert [tuple(row.split("\t")[1:5]) for row in rows] == [
        ("baseline", "1", "1", "0"), ("be", "2", "0.1", "0"),
        ("be", "2", "0.2", "0")]
    assert os.path.exists(out + ".config")


# id: (what the fault names, the bad file's bytes or None for a missing file,
# the run reading it, given simple_inputs and the bad file's path)
UNREADABLE = {
    "missing-hash-encode": ("hash matrix", None, lambda f, bad: [
        "encode", "--hash", bad, "--instances", f["instances"]]),
    "missing-hash-decode": ("hash matrix", None, lambda f, bad: [
        "decode", "--hash", bad, "--embeddings", f["bits"]]),
    "missing-hash-cbe": ("hash matrix", None, lambda f, bad: [
        "cbe", "--hash", bad, "--instances", f["instances"]]),
    "hash-malformed-header": ("hash matrix", b"2 2 2\n1 2\n2 1\n", lambda f, bad: [
        "encode", "--hash", bad, "--instances", f["instances"]]),
    "hash-index-beyond-int32": ("hash matrix", b"2 2 1 0\n1\n99999999999\n",
                                lambda f, bad: ["encode", "--hash", bad,
                                                "--instances", f["instances"]]),
    "hash-huge-k": ("hash matrix", b"5 3 100000000000000 0\n" + b"1\n" * 5,
                    lambda f, bad: ["encode", "--hash", bad,
                                    "--instances", f["instances"]]),
    "hash-header-not-integer": ("hash matrix", b"2 2 x 0\n1\n2\n", lambda f, bad: [
        "encode", "--hash", bad, "--instances", f["instances"]]),
    "hash-index-above-m": ("hash matrix", b"2 2 1 0\n1\n5\n", lambda f, bad: [
        "encode", "--hash", bad, "--instances", f["instances"]]),
    "hash-row-wrong-length": ("hash matrix", b"3 3 2 0\n1 2\n3\n2 1\n",
                              lambda f, bad: ["encode", "--hash", bad,
                                              "--instances", f["instances"]]),
    "hash-repeated-index": ("hash matrix", b"3 3 2 0\n1 2\n3 3\n2 1\n",
                            lambda f, bad: ["encode", "--hash", bad,
                                            "--instances", f["instances"]]),
    # the binary layout of rows [1, 2], [3, 3], [2, 1]
    "hash-binary-repeated-index": (
        "hash matrix", b"BEH1" + b"".join(v.to_bytes(4, "little") for v in (3, 3, 2))
        + bytes(8) + b"".join(v.to_bytes(4, "little") for v in (1, 2, 3, 3, 2, 1)),
        lambda f, bad: ["encode", "--hash", bad, "--instances", f["instances"]]),
    "instance-not-integer": ("instances", b"1 2\n1 x\n", lambda f, bad: [
        "encode", "--hash", f["hash"], "--instances", bad]),
    "instance-beyond-int32": ("instances", b"1 99999999999\n", lambda f, bad: [
        "encode", "--hash", f["hash"], "--instances", bad]),
    "embedding-bad-character": ("embeddings", b"01x" + b"0" * 13 + b"\n",
                                lambda f, bad: ["decode", "--hash", f["hash"],
                                                "--embeddings", bad]),
    "embedding-wrong-width": ("embeddings", b"010\n", lambda f, bad: [
        "decode", "--hash", f["hash"], "--embeddings", bad]),
    "embedding-not-utf8": ("embeddings", b"0101\n01\xff1\n", lambda f, bad: [
        "decode", "--hash", f["hash"], "--embeddings", bad]),
    "probability-short-line": ("probabilities", b"0.5 0.5\n", lambda f, bad: [
        "decode", "--hash", f["hash"], "--probs", bad]),
    "probability-nan": ("probabilities", b"nan" + b" 0.5" * 15 + b"\n",
                        lambda f, bad: ["decode", "--hash", f["hash"],
                                        "--probs", bad]),
    "probability-above-one": ("probabilities", b"0.5 " * 15 + b"1.5\n",
                              lambda f, bad: ["decode", "--hash", f["hash"],
                                              "--probs", bad]),
    "model-bad-magic": ("model", b"XXXX" + b"\0" * 16, lambda f, bad: [
        "evaluate", *TINY, "--baseline", "--model", bad]),
    "model-truncated-header": ("model", b"BENC\2\0\0\0\1\0", lambda f, bad: [
        "evaluate", *TINY, "--baseline", "--model", bad]),
    # two layers of 2**32 - 1 units, and no weights
    "model-oversized-layers": ("model", b"BENC\2\0\0\0" + b"\xff" * 8,
                               lambda f, bad: ["evaluate", *TINY, "--baseline",
                                               "--model", bad]),
    # sizes (2**31 - 1, 2**31) take 2**64 bytes of weights, 0 in int64; none given
    "model-size-wraps-int64": ("model", b"BENC" + np.array([2, 2**31 - 1, 2**31],
                                                           "<u4").tobytes(),
                               lambda f, bad: ["evaluate", *TINY, "--baseline",
                                               "--model", bad]),
    "model-zero-layer": ("model", b"BENC" + np.array([2, 0, 3], "<u4").tobytes()
                         + bytes(12), lambda f, bad: ["evaluate", *TINY, "--baseline",
                                                      "--model", bad]),
}

# the reason each of these faults gives after "cannot load <what> <path>: "
UNREADABLE_REASONS = {
    "hash-huge-k": "line 1: cannot draw 100000000000000 distinct indices from {1..3}",
    "hash-header-not-integer": "line 1: invalid literal for int() with base 10: 'x'",
    "hash-index-above-m": "line 3: projection indices must lie in [1, 2]",
    "hash-row-wrong-length": "line 3: 1 indices, expected 2",
    "hash-repeated-index": "line 3: repeated index within a row",
    "hash-binary-repeated-index": "repeated index within a row",
    "embedding-wrong-width": "line 1: expected 16 characters of 0/1",
    "embedding-not-utf8": "line 2: not UTF-8 text (byte 7)",
    "model-oversized-layers": "checkpoint size does not match layer sizes",
    "model-size-wraps-int64": "checkpoint size does not match layer sizes",
    "model-zero-layer": "all layer sizes must be >= 1, got (0, 3)",
}


@pytest.mark.parametrize("what,payload,run", UNREADABLE.values(), ids=UNREADABLE)
def test_unreadable_artifact_is_one_data_fault_line(tmp_path, capsys,
                                                    simple_inputs, what,
                                                    payload, run):
    bad = tmp_path / "bad"
    if payload is not None:
        bad.write_bytes(payload)
    capsys.readouterr()
    assert cli.main([*run(simple_inputs, str(bad)),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"data error: cannot load {what} {bad}: "), err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("case", UNREADABLE_REASONS)
def test_unreadable_artifact_fault_names_its_reason(tmp_path, capsys, simple_inputs,
                                                    case):
    what, payload, run = UNREADABLE[case]
    bad = tmp_path / "bad"
    bad.write_bytes(payload)
    capsys.readouterr()
    assert cli.main([*run(simple_inputs, str(bad)),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"data error: cannot load {what} {bad}: {UNREADABLE_REASONS[case]}"]


# id: (exit code, the one stderr line, the run given simple_inputs and the
# path of an empty file); each fault is found before any file is written
SIMPLE_FAULTS = {
    "decode-probs-and-embeddings": (
        2, "config error: provide exactly one of --probs or --embeddings",
        lambda f, empty: ["decode", "--hash", f["hash"], "--probs", f["probs"],
                          "--embeddings", f["bits"]]),
    "decode-neither-probs-nor-embeddings": (
        2, "config error: provide exactly one of --probs or --embeddings",
        lambda f, empty: ["decode", "--hash", f["hash"]]),
    "decode-neither-before-reading-the-hash": (
        2, "config error: provide exactly one of --probs or --embeddings",
        lambda f, empty: ["decode", "--hash",
                          str(Path(empty).with_name("no-such-file"))]),
    "decode-mode-foo": (
        2, "config error: decode mode must be likelihood or nll, got 'foo'",
        lambda f, empty: ["decode", "--hash", f["hash"], "--embeddings", f["bits"],
                          "--decode", "foo"]),
    "decode-top-n-0": (
        2, "config error: top_n 0 out of range [1, 40]",
        lambda f, empty: ["decode", "--hash", f["hash"], "--embeddings", f["bits"],
                          "--top-n", "0"]),
    "decode-top-n-above-d": (
        2, "config error: top_n 41 out of range [1, 40]",
        lambda f, empty: ["decode", "--hash", f["hash"], "--embeddings", f["bits"],
                          "--top-n", "41"]),
    "cbe-empty-instance-file": (
        1, "data error: instance file is empty",
        lambda f, empty: ["cbe", "--hash", f["hash"], "--instances", empty]),
    "build-hash-k-0": (
        2, "config error: projection count k must be >= 1, got 0",
        lambda f, empty: ["build-hash", "--d", "10", "--m", "4", "--k", "0"]),
}


@pytest.mark.parametrize("code,line,run", SIMPLE_FAULTS.values(), ids=SIMPLE_FAULTS)
def test_simple_command_fault_is_one_line_and_writes_nothing(tmp_path, capsys,
                                                             simple_inputs, code,
                                                             line, run):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert cli.main([*run(simple_inputs, str(empty)),
                     "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.splitlines() == [line]
    assert sorted(tmp_path.iterdir()) == before


def test_cbe_on_one_item_is_one_data_fault_line(tmp_path, capsys):
    """Co-occurrence statistics need two items; the fault comes before any
    file is written."""
    h, out = str(tmp_path / "h.txt"), str(tmp_path / "out")
    instances = tmp_path / "instances.txt"
    instances.write_text("1\n1\n")
    assert cli.main(["build-hash", "--d", "1", "--m", "1", "--k", "1",
                     "--out", h]) == 0
    capsys.readouterr()
    assert cli.main(["cbe", "--hash", h, "--instances", str(instances),
                     "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "data error: co-occurrence statistics need at least 2 items"]
    assert not list(tmp_path.glob("out*"))


def test_m_above_d_is_a_config_fault(tmp_path):
    out = str(tmp_path / "model")
    assert cli.main(["train", *TINY, "--m", "300", "--out", out]) == 2


def test_missing_data_file_is_a_data_fault(tmp_path, capsys):
    out = str(tmp_path / "model")
    missing = str(tmp_path / "no-such-file.txt")
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"u1 \xff 1\nu1 2 2\n")
    bad_line_3 = tmp_path / "bad.txt"
    bad_line_3.write_bytes(b"u1 1 1\nu1 2 2\nu2 \xff 3\n")
    # short profiles that the auto sniff reads as triples, the last row
    # without a timestamp
    short = tmp_path / "short-profiles.txt"
    short.write_text("10 20 30\n10 40 50\n60 70\n")
    for path, message in [
            (missing, f"[Errno 2] No such file or directory: {missing!r}"),
            (str(not_utf8), f"{not_utf8}: line 1: not UTF-8 text (byte 3)"),
            (str(bad_line_3), f"{bad_line_3}: line 3: not UTF-8 text (byte 17)"),
            (str(short), "line 3: no timestamp, unlike line 1; as triples "
                         "(data_format 'auto'), every row or none has one")]:
        assert cli.main(["train", "--data", path, "--m", "40",
                         "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]


def test_build_hash_with_k_above_m_is_a_config_fault(tmp_path):
    out = str(tmp_path / "h.txt")
    assert cli.main(["build-hash", "--d", "10", "--m", "4", "--k", "5",
                     "--out", out]) == 2


def test_evaluate_without_hash_in_is_a_data_fault(tmp_path, capsys):
    model = str(tmp_path / "baseline.model")
    assert cli.main(["train", *TINY, "--baseline", "--out", model]) == 0
    os.remove(model + ".hash-in")
    capsys.readouterr()
    assert cli.main(["evaluate", *TINY, "--baseline", "--model", model]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"data error: cannot load hash matrix "
                             f"{model}.hash-in: "), err


# a model trained on TINY's 200 items, then evaluated on 300 items, or with
# the sidecar matrices of an m = 60 run next to its m = 40 checkpoint
MISMATCHES = {
    "be-d-300": (["--m", "40"], ["--d", "300"], False),
    "baseline-d-300": (["--baseline"], ["--d", "300"], False),
    "sidecars-of-m-60": (["--m", "40"], [], True),
}


@pytest.mark.parametrize("train_flags,eval_flags,swap", MISMATCHES.values(),
                         ids=MISMATCHES)
def test_evaluate_on_a_mismatched_embedding_is_a_data_fault(
        tmp_path, monkeypatch, capsys, train_flags, eval_flags, swap):
    model, other = str(tmp_path / "run.model"), str(tmp_path / "other.model")
    assert cli.main(["train", *TINY, *train_flags, "--out", model]) == 0
    if swap:
        assert cli.main(["train", *TINY, "--m", "60", "--out", other]) == 0
        for suffix in (".hash-in", ".hash-out"):
            os.replace(other + suffix, model + suffix)
    # without <model>.config, evaluate trusts the data flags, so the matrix
    # check is the one that refuses d = 300
    flags = str(tmp_path / "run.flags")
    os.replace(model + ".config", flags)
    monkeypatch.setattr(experiment, "encode_rows", _must_not_run)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", flags, *eval_flags,
                     "--model", model]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: input hash matrix "), err


# data flags that differ from a model's .config: each would score profiles
# the model trained on, or profiles of other data
SPLIT_MISMATCHES = {
    "data-seed-1": (["--data-seed", "1"], "data_seed is 1 here and 0"),
    "test-size-0.2": (["--test-size", "0.2"], "test_size is 0.2 here and 0.1"),
    "d-300": (["--d", "300"], "d is 300 here and 200"),
    "n-and-data-seed": (["--data-seed", "1", "--n", "400"], "n is 400 here and 500"),
}


@pytest.mark.parametrize("eval_flags,difference", SPLIT_MISMATCHES.values(),
                         ids=SPLIT_MISMATCHES)
def test_evaluate_on_other_data_settings_than_the_models_is_a_data_fault(
        tmp_path, monkeypatch, capsys, eval_flags, difference):
    model = str(tmp_path / "run.model")
    assert cli.main(["train", *TINY, "--m", "40", "--out", model]) == 0
    assert cli.main(["evaluate", "--config", model + ".config",
                     "--model", model]) == 0
    monkeypatch.setattr(experiment, "evaluate_model", _must_not_run)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", model + ".config", *eval_flags,
                     "--model", model]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "data error: the data settings differ from the model's: "
        f"{difference} in {model}.config"]


def test_evaluate_names_a_data_setting_that_drops_items_before_the_items(
        tmp_path, monkeypatch, capsys):
    # 12 triples over users u1-u4 and items a-e; items d and e are in one
    # profile each, so min_item_count 2 drops them and the item lists differ
    data = tmp_path / "t.txt"
    data.write_text("u1 a 1\nu1 b 2\nu1 c 3\nu2 a 1\nu2 d 2\nu2 b 3\n"
                    "u3 c 1\nu3 a 2\nu3 b 3\nu4 e 1\nu4 a 2\nu4 c 3\n")
    model = str(tmp_path / "m")
    flags = ["--data", str(data), "--baseline", "--epochs", "1", "--test-size", "0.25"]
    assert cli.main(["train", *flags, "--out", model]) == 0
    assert cli.main(["evaluate", *flags, "--model", model]) == 0
    monkeypatch.setattr(experiment, "evaluate_model", _must_not_run)
    capsys.readouterr()
    assert cli.main(["evaluate", *flags, "--min-item-count", "2", "--model", model]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "data error: the data settings differ from the model's: "
        f"min_item_count is 2 here and 1 in {model}.config"]


def test_evaluate_with_a_malformed_model_config_is_a_data_fault(tmp_path,
                                                                monkeypatch,
                                                                capsys):
    model = str(tmp_path / "run.model")
    assert cli.main(["train", *TINY, "--m", "40", "--out", model]) == 0
    flags = str(tmp_path / "run.flags")
    os.replace(model + ".config", flags)
    Path(model + ".config").write_text("d=two hundred\n")
    monkeypatch.setattr(experiment, "evaluate_model", _must_not_run)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", flags, "--model", model]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"data error: cannot load model config {model}.config: "), err


def test_evaluate_on_a_file_of_other_items_is_a_data_fault(tmp_path, monkeypatch,
                                                          capsys):
    # b.txt is a.txt with every item renamed: as many items, other ids
    rng = np.random.default_rng(5)
    rows = [rng.choice(50, size=5, replace=False) for _ in range(200)]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path, first in ((a, 0), (b, 5000)):
        path.write_text("".join(" ".join(f"i{first + i}" for i in r) + "\n"
                                for r in rows))
    model = str(tmp_path / "m")
    assert cli.main(["train", "--data", str(a), "--m", "20", "--epochs", "1",
                     "--out", model]) == 0
    assert Path(model + ".items").read_text().split("\n") == [
        *sorted(f"i{i}" for i in range(50)), ""]
    assert cli.main(["evaluate", "--config", model + ".config", "--model", model]) == 0
    monkeypatch.setattr(experiment, "evaluate_model", _must_not_run)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", model + ".config", "--model", model,
                     "--data", str(b)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "data error: the data's items differ from the model's: item 1 is i5000 in "
        f"the data and i0 in {model}.items"]
    assert cli.main(["evaluate", "--config", model + ".config", "--model", model,
                     "--data", "none", "--d", "50", "--n", "300"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"data error: the model's items are those of a data file ({model}.items), "
        "but the data is synthetic"]


def test_train_on_synthetic_data_writes_no_item_list(tmp_path):
    model = str(tmp_path / "m")
    assert cli.main(["train", *TINY, "--m", "40", "--out", model]) == 0
    assert not os.path.exists(model + ".items")


SUBCOMMANDS = ("build-hash", "encode", "decode", "cbe", "train", "evaluate", "sweep")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exited:
        cli.main([command, "--help"])
    assert exited.value.code == 0
    text = capsys.readouterr().out
    assert re.search(r"^  --config CONFIG ", text, re.M)
    if command in ("train", "evaluate", "sweep"):
        for field in dataclasses.fields(experiment.ExperimentConfig):
            flag = "--" + field.name.replace("_", "-")
            assert re.search(rf"^  {re.escape(flag)}\b", text, re.M), flag


BAD_FLAG_VALUES = {
    "build-hash-d-abc": ["build-hash", "--d", "abc", "--m", "4", "--k", "2"],
    "build-hash-format-foo": ["build-hash", "--d", "8", "--m", "4", "--k", "2",
                              "--format", "foo"],
    "decode-top-n-x": ["decode", "--hash", "h", "--embeddings", "e",
                       "--top-n", "x"],
    "cbe-seed-x": ["cbe", "--hash", "h", "--instances", "i", "--seed", "x"],
    "sweep-parallel-x": ["sweep", *TINY, "--m-ratios", "0.2", "--k-values", "2",
                         "--parallel", "x"],
    "sweep-m-ratios-x": ["sweep", *TINY, "--m-ratios", "0.1,x", "--k-values", "2"],
    "train-lr-x": ["train", *TINY, "--lr", "x"],
}


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES.values(), ids=BAD_FLAG_VALUES)
def test_bad_flag_value_is_one_config_error_line(tmp_path, capsys, argv):
    out = str(tmp_path / "out")
    assert cli.main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: argument --"), err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,code", [
    (["build-hash", "--d", "abc", "--m", "4", "--k", "2"], 2),
    (["encode", "--hash", "no-such-hash", "--instances", "i"], 1),
    (["train", "--help"], 0)], ids=["config-fault", "data-fault", "help"])
def test_entry_point_exit_codes(tmp_path, argv, code):
    """`python -m bloomemb.cli` exits with the code main returns."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "bloomemb.cli", *argv, "--out", "out"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before the config was checked")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_empty_out_is_one_config_error_line_before_any_work(
        tmp_path, monkeypatch, capsys, simple_inputs, command):
    run = next(r for r in SIMPLE_RUNS.values() if r(simple_inputs)[0] == command)
    monkeypatch.chdir(tmp_path)
    for name in ("load_dataset", "fit", "evaluate_model"):
        monkeypatch.setattr(experiment, name, _must_not_run)
    capsys.readouterr()
    assert cli.main([*run(simple_inputs), "--out", ""]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: argument --out: expected a file path, got ''"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out,reason", [
    ("outdir", "[Errno 21] Is a directory"),
    (os.path.join("nodir", "h.txt"), "[Errno 2] No such file or directory")],
    ids=["out-is-a-directory", "out-in-a-missing-directory"])
def test_unwritable_out_is_a_data_fault_naming_it(tmp_path, monkeypatch, capsys,
                                                  out, reason):
    """The fault names --out, not the temp file the write goes through,
    and no temp file is left behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(["build-hash", "--d", "10", "--m", "4", "--k", "2",
                     "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"data error: {reason}: {out!r}"]
    assert sorted(tmp_path.rglob("*")) == before


def test_a_failing_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    """Every output goes to its temp file before any is renamed into place,
    so a target that is a directory fails the command with no file written,
    the checkpoint included."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.hash-in").mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(["train", "--data", "none", "--d", "200", "--n", "500",
                     "--epochs", "1", "--m", "40", "--out", "m"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "data error: [Errno 21] Is a directory: 'm.hash-in'"]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path, umask):
    reference = tmp_path / "reference"
    old = os.umask(umask)
    try:
        with open(reference, "w"):
            pass
        for argv in (["build-hash", "--d", "10", "--m", "4", "--k", "2"],
                     ["train", *TINY, "--m", "40"]):
            assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == 0
    finally:
        os.umask(old)
    outputs = sorted(p.name for p in tmp_path.iterdir() if p != reference)
    assert outputs == ["build-hash", "build-hash.config", "train", "train.config",
                       "train.hash-in", "train.hash-out", "train.report.tsv"]
    modes = {(tmp_path / name).stat().st_mode for name in outputs}
    assert modes == {reference.stat().st_mode}


def test_evaluate_prints_its_score_only_once_written(tmp_path, capsys,
                                                     simple_inputs):
    argv = SIMPLE_RUNS["evaluate"](simple_inputs)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "missing" / "eval.tsv")]) == 1
    assert capsys.readouterr().out == ""
    assert cli.main([*argv, "--out", str(tmp_path / "eval.tsv")]) == 0
    assert re.fullmatch(r"measure=MAP score=\S+ n=50 seconds=\S+\n",
                        capsys.readouterr().out)


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
    "d-2**31": ["train", "--d", "2147483648"],
    "d-2**32": ["train", "--d", "4294967296"],
    "m-out-0": ["train", "--m-in", "40", "--m-out", "0", "--k", "1"],
    "noise-2": ["train", "--noise", "2"],
    "profile-size-min-1": ["train", "--profile-size-min", "1"],
    "profile-size-max-above-d": ["train", "--profile-size-max", "201"],
    "file-optimizer": ["train", "--config", "optimizer=foo"],
    "file-beta1": ["train", "--config", "beta1=1.5"],
    "sweep-batch-size-0": ["sweep", "--batch-size", "0", "--m-ratios", "0.2",
                           "--k-values", "2"],
    "top-n-above-d": ["train", "--top-n", "201"],
    "optimizer-foo": ["train", "--optimizer", "foo"],
    "k-abc": ["train", "--k", "abc"],
    "decode-foo": ["train", "--decode", "foo"],
    "measure-foo": ["train", "--measure", "foo"],
    "seed-abc": ["train", "--seed", "abc"],
    "seed-negative": ["train", "--seed", "-1"],
    "init-seed-negative": ["train", "--init-seed", "-2"],
    "clip-norm-negative": ["train", "--clip-norm", "-1"],
    "momentum-nan": ["train", "--optimizer", "sgd", "--momentum", "nan"],
    "momentum-1.5": ["train", "--momentum", "1.5"],
    "rating-threshold-nan": ["train", "--rating-threshold", "nan"],
    "unknown-flag": ["train", "--bogus", "1"],
    "file-no-equals": ["train", "--config", "epochs=2\nbatch_size"],
    "file-unknown-key": ["train", "--config", "# comment\n\nwidth=3"],
    "file-bad-int": ["train", "--config", "batch_size=two"],
    "file-bad-bool": ["train", "--config", "baseline=maybe"],
    "file-nested-config": ["train", "--config", "epochs=2\nconfig=does-not-exist.config"],
    "sweep-without-m-ratios": ["sweep", "--k-values", "2"],
}
# the start of the fault line, where a test pins it
FAULT_TEXTS = {
    "d-2**31": "d must lie in [2, 2**31 - 1], got 2147483648",
    "d-2**32": "d must lie in [2, 2**31 - 1], got 4294967296",
    "m-out-0": "m_out must be >= 1, got 0",
    "seed-negative": "data_seed must be >= 0, got -1",
    "init-seed-negative": "init_seed must be >= 0, got -2",
    "clip-norm-negative": "clip_norm must be None or > 0, got -1.0",
    "momentum-nan": "momentum must lie in [0, 1), got nan",
    "profile-size-min-1": "profile sizes must satisfy 2 <= min <= max",
    "profile-size-max-above-d": "profile size 201 exceeds d=200",
    "rating-threshold-nan": "rating_threshold must not be NaN, got nan",
    "unknown-flag": "unrecognized arguments: --bogus 1",
    "file-no-equals": "line 2: expected key=value, got 'batch_size'",
    "file-unknown-key": "unrecognized arguments: --width=3",
    "file-bad-int": "argument --batch-size: invalid literal",
    "file-bad-bool": "argument --baseline: expected a boolean",
    "file-nested-config": "line 2: config files do not nest, "
                          "got 'config=does-not-exist.config'",
    "sweep-without-m-ratios": "the following arguments are required: --m-ratios",
}


@pytest.mark.parametrize("fault", CONFIG_FAULTS)
def test_config_fault_exits_2_before_training(tmp_path, monkeypatch, capsys,
                                              fault):
    command, *flags = CONFIG_FAULTS[fault]
    if flags[0] == "--config":
        (tmp_path / "run.config").write_text(flags[1] + "\n")
        flags = ["--config", str(tmp_path / "run.config")]
    before = sorted(tmp_path.iterdir())
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    capsys.readouterr()
    # a case's own --m-in or --m-out comes later, so it wins
    assert cli.main([command, *TINY, "--m", "40", *flags,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("config error: " + FAULT_TEXTS.get(fault, "")), err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("flags,fields", [
    (["--m", "40", "--m-out", "30"], {"m_in": 40, "m_out": 30}),
    (["--m-out", "30", "--m", "40"], {"m_in": 40, "m_out": 40}),
    (["--seed", "7", "--cbe-seed", "3"], {"data_seed": 7, "cbe_seed": 3,
                                          "shuffle_seed": 12}),
    (["--cbe-seed", "3", "--seed", "7"], {"data_seed": 7, "cbe_seed": 10})],
    ids=["m-then-m-out", "m-out-then-m", "seed-then-cbe-seed", "cbe-seed-then-seed"])
def test_the_later_of_two_flags_setting_a_field_wins(flags, fields):
    args = cli.build_parser().parse_args(["train", *TINY, *flags, "--out", "o"])
    cfg = cli._resolve_config(args)
    assert {field: getattr(cfg, field) for field in fields} == fields


def test_seed_after_a_replayed_config_sets_the_six_seeds(tmp_path):
    # the .config lines come before the command line's flags
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    assert cli.main(["train", *TINY, "--epochs", "1", "--m", "40", "--seed", "2",
                     "--out", first]) == 0
    assert cli.main(["train", "--config", first + ".config", "--seed", "7",
                     "--out", second]) == 0
    logged = dict(line.split("=", 1) for line in
                  Path(second + ".config").read_text().splitlines()[1:])
    assert [logged[field] for field in cli._SEED_FIELDS] == [
        "7", "8", "9", "10", "11", "12"]
    assert logged["m_in"] == logged["m_out"] == "40"


@pytest.mark.parametrize("argv,missing", [
    ([], "command"),
    (["build-hash", "--d", "10", "--m", "4", "--k", "2"], "--out")],
    ids=["no-command", "build-hash-without-out"])
def test_missing_argument_is_one_config_error_line(capsys, argv, missing):
    # argparse's own handling would print a usage block and raise SystemExit
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: the following arguments are required: {missing}"]


def test_config_file_that_is_not_utf8_is_a_config_fault_naming_its_line(
        tmp_path, monkeypatch, capsys):
    config = tmp_path / "run.config"
    config.write_bytes(b"d=\xff\xfe\n")
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: cannot read config {config}: line 1: not UTF-8 text (byte 2)"]


def _nan_checkpoint(model: str) -> str:
    """`model` with NaN output biases, saved next to it with its sidecars."""
    net = trainer.network_from_bytes(Path(model).read_bytes())
    net.biases[-1][:] = np.nan
    bad = model + ".nan"
    Path(bad).write_bytes(trainer.network_to_bytes(net))
    for suffix in (".hash-in", ".hash-out"):
        Path(bad + suffix).write_bytes(Path(model + suffix).read_bytes())
    return bad


# training that overflows, and a checkpoint whose forward pass is NaN
DIVERGED_RUNS = {
    "train-lr-1e30": ("epoch 1: ", lambda model: [
        "train", *TINY, "--m", "40", "--epochs", "1", "--lr", "1e30"]),
    "evaluate-nan-checkpoint": ("", lambda model: [
        "evaluate", *TINY, "--baseline", "--model", _nan_checkpoint(model)]),
}


@pytest.mark.parametrize("where,run", DIVERGED_RUNS.values(), ids=DIVERGED_RUNS)
def test_diverged_run_is_one_numeric_fault_line(tmp_path, capsys, baseline_model,
                                                where, run):
    out = str(tmp_path / "out")
    argv = run(baseline_model)
    capsys.readouterr()
    assert cli.main([*argv, "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"numeric error: {where}non-finite activation in forward pass"]
    assert not list(tmp_path.glob("out*"))
