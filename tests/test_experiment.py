"""Pipeline contracts: evaluation against the metric oracle, sweep parity."""

import copy
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bloomemb
from bloomemb import experiment
from bloomemb.codec import ScoreOrder, decode_likelihood_batch, decode_nll_batch, \
    encode_batch, rank_batch
from bloomemb.experiment import (ConfigError, ExperimentConfig, _ranks,
                                 build_matrices, config_from_text,
                                 evaluate_model, fit, load_dataset, run_sweep,
                                 sweep_rows_tsv)
from bloomemb.metrics import average_precision, reciprocal_rank
from bloomemb.trainer import forward_batch, init_network


def tiny_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(d=200, n=500, m_in=40, m_out=40, epochs=2,
                            **overrides)


ORACLES = {
    "MAP": lambda ranked, out: average_precision(ranked, set(out.positions.tolist())),
    "RR": lambda ranked, out: reciprocal_rank(ranked, int(out.positions.min())),
}


@pytest.fixture(scope="module")
def trained():
    cfg = tiny_config()
    ds = load_dataset(cfg)
    h_in, h_out = build_matrices(cfg, ds)
    net, _ = fit(cfg, ds, h_in, h_out)
    return ds, h_in, h_out, net


DECODERS = {
    "likelihood": (decode_likelihood_batch, ScoreOrder.DESCENDING_LIKELIHOOD),
    "nll": (decode_nll_batch, ScoreOrder.ASCENDING_NLL),
}


@pytest.mark.parametrize("output", ["trained", "flat"])
@pytest.mark.parametrize("top_n", [None, 10])
@pytest.mark.parametrize("decode_mode", ["likelihood", "nll"])
@pytest.mark.parametrize("measure", ["MAP", "RR"])
def test_evaluate_model_map_equals_metric_oracle(trained, measure, decode_mode,
                                                 top_n, output):
    ds, h_in, h_out, net = trained
    if output == "flat":
        # a zero output layer scores every item alike: each rank is its id
        net = copy.deepcopy(net)
        net.weights[-1][:] = 0
        net.biases[-1][:] = 0
    test = ds.test_profiles()
    result = evaluate_model(net, test, h_in, h_out, decode_mode=decode_mode,
                            measure=measure, top_n=top_n)

    decode, ordering = DECODERS[decode_mode]
    x = encode_batch([p[0] for p in test], h_in).astype(net.dtype)
    probs = forward_batch(net, x).astype(np.float64)
    ranked = rank_batch(decode(probs, h_out), ordering, top_n or ds.d)
    if output == "flat":
        assert (ranked == np.arange(1, ranked.shape[1] + 1)).all()
    oracle = np.mean([ORACLES[measure](row.tolist(), out)
                      for row, (_, out) in zip(ranked, test)])
    assert result.score == pytest.approx(oracle, abs=1e-12)
    assert result.n_evaluated == len(test)


@pytest.mark.parametrize("descending", [True, False])
@pytest.mark.parametrize("c", [1, 3, 40, 300])
def test_relevant_item_ranks_equal_stable_sort_positions(c, descending):
    # few distinct values (and both zeros) force ties within and across
    # the relevant items; c = 300 is every item of the row
    rng = np.random.default_rng(c)
    for _ in range(20):
        row = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=300) \
            + rng.choice([0.0, 1e-3], size=300) * rng.random(300)
        items = np.sort(rng.choice(300, size=c, replace=False)) + 1
        order = np.argsort(-row if descending else row, kind="stable")
        position = np.empty(300, dtype=np.int64)
        position[order] = np.arange(1, 301)
        assert (_ranks(row, items, descending) == position[items - 1]).all()


@pytest.mark.parametrize("top_n", [0, -3, 201])
def test_evaluate_model_rejects_top_n_outside_item_range(trained, top_n):
    ds, h_in, h_out, net = trained
    with pytest.raises(ValueError, match="top_n"):
        evaluate_model(net, ds.test_profiles(), h_in, h_out, top_n=top_n)


@pytest.mark.parametrize("top_n", [0, -3])
def test_config_rejects_top_n_below_one(top_n):
    with pytest.raises(ValueError, match="top_n"):
        ExperimentConfig(top_n=top_n)


def test_sweep_rows_do_not_depend_on_worker_count():
    cfg = tiny_config()
    serial = run_sweep(cfg, [0.2], [2], [0, 1], parallel=1)
    pooled = run_sweep(cfg, [0.2], [2], [0, 1], parallel=2)
    assert len(serial) == len(pooled) == 4
    # wall-time fields are measurements, everything else must match exactly
    timed = {"train_time", "eval_time", "train_time_ratio", "eval_time_ratio"}
    for a, b in zip(serial, pooled):
        assert a.keys() == b.keys()
        assert {k: v for k, v in a.items() if k not in timed} == \
            {k: v for k, v in b.items() if k not in timed}


def test_load_dataset_reads_the_file_each_time(tmp_path):
    path = tmp_path / "profiles.txt"
    # at test_size 0.5 both files split into nonempty halves
    cfg = ExperimentConfig(data_path=str(path), data_format="profiles",
                           test_size=0.5)
    path.write_text("1 2 3\n2 3 4\n3 4 5\n4 5 6\n")
    assert load_dataset(cfg).n == 4
    path.write_text("1 2 3\n2 3 4\n3 4 5\n4 5 6\n5 6 7\n6 7 8\n")
    assert load_dataset(cfg).n == 6


@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_loads_its_dataset_once(monkeypatch, parallel):
    caller, calls, load = os.getpid(), [], experiment.load_dataset

    def counted(cfg):
        assert os.getpid() == caller, "a pool worker loaded the dataset"
        calls.append(cfg)
        return load(cfg)

    monkeypatch.setattr(experiment, "load_dataset", counted)
    rows = run_sweep(tiny_config(), [0.2], [2], [0, 1], parallel=parallel)
    assert len(rows) == 4 and len(calls) == 1


def _must_not_run(*args, **kwargs):
    raise AssertionError("a cell ran before the grid was checked")


@pytest.mark.parametrize("m_ratios,k_values", [
    ([2.0], [2]), ([0.2], [0]), ([0.2], [201]), ([], [2]), ([0.2], [])],
    ids=["ratio-2", "k-0", "k-above-d", "no-ratio", "no-k"])
def test_sweep_grid_faults_raise_before_any_cell(monkeypatch, m_ratios, k_values):
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    with pytest.raises(ConfigError):
        run_sweep(tiny_config(), m_ratios, k_values, [0])


def twelve_item_file(tmp_path) -> str:
    path = tmp_path / "profiles.txt"
    path.write_text("".join(f"{i} {i + 1} {i + 2}\n" for i in range(1, 11)))
    return str(path)


@pytest.mark.parametrize("test_size,fault", [
    # 10 profiles at test_size 0.01 hold out round(0.1) = 0 of them
    (0.01, "no training or no test profiles")])
def test_sweep_rejects_grids_the_data_cannot_hold(tmp_path, monkeypatch,
                                                  test_size, fault):
    path = twelve_item_file(tmp_path)
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    with pytest.raises(ConfigError, match=fault):
        run_sweep(ExperimentConfig(data_path=path, data_format="profiles",
                                   test_size=test_size), [0.2], [2], [0])


def test_sweep_m_ratio_is_of_the_loaded_datasets_d(tmp_path, monkeypatch):
    # the config's synthetic d (2000) must not set m on a 12-item file
    trained = []

    def recording_fit(cfg, ds, h_in, h_out):
        trained.append((cfg.baseline, h_in.m, h_out.m))
        return fit(cfg, ds, h_in, h_out)

    monkeypatch.setattr(experiment, "fit", recording_fit)
    run_sweep(ExperimentConfig(data_path=twelve_item_file(tmp_path),
                               data_format="profiles", test_size=0.5, epochs=1),
              [0.5], [2], [0])
    assert trained == [(True, 12, 12), (False, 6, 6)]


@pytest.mark.parametrize("test_size", [0.0, 1.0, -0.5, 1.5])
def test_config_rejects_test_size_outside_unit_interval(test_size):
    with pytest.raises(ValueError, match="test_size"):
        ExperimentConfig(test_size=test_size)


CONFIG_FAULTS = {
    "batch-size-0": {"batch_size": 0},
    "batch-size-negative": {"batch_size": -5},
    "epochs-negative": {"epochs": -1},
    "lr-negative": {"learning_rate": -1.0},
    "hidden-0": {"hidden": (0,)},
    "n-clusters-0": {"n_clusters": 0},
    "d-1": {"d": 1},
    "noise-2": {"noise": 2.0},
    "optimizer": {"optimizer": "foo"},
    "beta1": {"beta1": 1.5},
    "k-0": {"k": 0},
    "k-above-m": {"k": 5, "m_in": 4},
    "data-format": {"data_format": "csv"},
}


@pytest.mark.parametrize("bad", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS)
def test_config_faults_raise_when_built(bad):
    with pytest.raises(ConfigError):
        dataclasses.replace(ExperimentConfig(), **bad)


def test_config_checks_k_only_for_an_embedding_and_data_only_if_synthetic():
    ExperimentConfig(baseline=True, k=5, m_in=4)
    ExperimentConfig(data_path="profiles.txt", d=1, n_clusters=0)


@pytest.mark.parametrize("text,fault", [
    ("epochs=2\nbatch_size\n", "line 2: expected key=value"),
    ("# comment\n\nwidth=3\n", "line 3: unknown config key 'width'"),
    ("epochs=two\n", "line 1: invalid literal"),
    ("baseline=maybe\n", "line 1: expected a boolean")])
def test_malformed_config_text_names_the_line(text, fault):
    with pytest.raises(ConfigError, match=fault):
        config_from_text(text)


def test_diverged_sweep_cells_say_why(monkeypatch):
    def diverging_network(spec):
        net = init_network(spec)
        if spec.layer_sizes[0] < 200:  # the BE cells' m = 40, not d = 200
            net.biases[-1][:] = np.nan
        return net

    monkeypatch.setattr(experiment, "init_network", diverging_network)
    rows = run_sweep(tiny_config(), [0.2], [2], [0, 1])
    reason = "epoch 1: non-finite activation in forward pass"
    assert [(r["variant"], np.isnan(r["S_i"]), r["error"]) for r in rows] == [
        ("baseline", False, ""), ("baseline", False, ""),
        ("be", True, reason), ("be", True, reason)]
    lines = sweep_rows_tsv(rows).splitlines()
    assert [line.split("\t")[-1] for line in lines] == [
        "error", "", "", reason, reason]


def test_import_does_not_load_scipy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(bloomemb.__file__).resolve().parents[1]))
    code = "import sys, bloomemb; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_benchmark_imports_against_the_package():
    # importing the benchmark in a fresh process, against the package alone,
    # catches a package API change that would break it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "bench")]))
    proc = subprocess.run([sys.executable, "-c", "import rep"], env=env,
                          cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
