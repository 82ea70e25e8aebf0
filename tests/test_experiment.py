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
from bloomemb.cbe import count_cooccurrences, threshold_and_order
from bloomemb.codec import ScoreOrder, SparseInstance, decode_likelihood_batch, \
    decode_nll_batch, encode_batch, rank_batch
from bloomemb.experiment import (ConfigError, ExperimentConfig, _ranks,
                                 build_matrices, evaluate_model, fit,
                                 load_dataset, run_experiment, run_sweep,
                                 sweep_rows_tsv)
from bloomemb.hashing import build_hash_matrix
from bloomemb.metrics import average_precision
from bloomemb.trainer import NetworkSpec, forward_batch, init_network


def tiny_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(d=200, n=500, m_in=40, m_out=40, epochs=2,
                            **overrides)


ORACLES = {
    "MAP": lambda ranked, out: average_precision(ranked, set(out.positions.tolist())),
    "RR": lambda ranked, out: average_precision(ranked, {int(out.positions.min())}),
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


@pytest.mark.parametrize("constant, size", [
    pytest.param("EVAL_SLICE", 1, id="1"),
    pytest.param("EVAL_SLICE", 7, id="7"),
    pytest.param("DECODE_ROWS", 1, id="decode-rows-1"),
    pytest.param("DECODE_ROWS", 3, id="decode-rows-3"),
    pytest.param("DECODE_ROWS", 1000, id="decode-rows-1000")])
def test_scores_do_not_depend_on_slice_boundaries(trained, monkeypatch, constant,
                                                  size):
    # OpenBLAS sgemm can change a row's output in the last bits with the
    # call's row count: on a 40-100-40 net, 1-, 7- and 33-row calls differed
    # from one 666-row call by up to 7.5e-9 (OpenBLAS 0.3.31, 2 cores). The
    # ranks did not move: these scores and test_frozen's pins held == at
    # slices of 1, 7, 33 and 256, so the comparison is exact. Decoding and
    # ranking work row by row, so no block size may change a bit; 1000
    # rows decodes each slice in one block
    ds, h_in, h_out, net = trained
    test = ds.test_profiles()
    cases = [dict(decode_mode=mode, measure=measure, top_n=top_n)
             for mode in ("likelihood", "nll") for measure in ("MAP", "RR")
             for top_n in (None, 10)]
    whole = [evaluate_model(net, test, h_in, h_out, **case) for case in cases]
    assert len(test) < experiment.EVAL_SLICE
    monkeypatch.setattr(experiment, constant, size)
    for case, want in zip(cases, whole):
        got = evaluate_model(net, test, h_in, h_out, **case)
        assert got.score == want.score, case
        assert got.n_evaluated == len(test)


@pytest.mark.parametrize("decode_mode", ["likelihood", "nll"])
def test_evaluation_peak_is_a_few_slices_not_the_split(monkeypatch, traced_peak,
                                                       decode_mode):
    # 8 slices and a 5-profile tail over d = 2000: one call on the whole
    # split peaked at 19-20 slices' worth, the sliced call at 3.5-3.7 when
    # each slice was decoded whole, and at 0.91-0.92 in DECODE_ROWS blocks
    d, m, eval_slice = 2000, 400, 64
    monkeypatch.setattr(experiment, "EVAL_SLICE", eval_slice)
    rng = np.random.default_rng(0)
    test = [tuple(SparseInstance.from_items(d, rng.choice(d, size=6) + 1)
                  for _ in range(2)) for _ in range(8 * eval_slice + 5)]
    h_in = build_hash_matrix(d, m, 4, 1)
    h_out = build_hash_matrix(d, m, 4, 2)
    net = init_network(NetworkSpec(layer_sizes=(m, 100, m)))
    peak = traced_peak(evaluate_model, net, test, h_in, h_out,
                       decode_mode=decode_mode)
    one_slice = eval_slice * d * 8
    assert peak < 5 * one_slice, peak / one_slice


@pytest.mark.parametrize("decode_mode", ["likelihood", "nll"])
def test_evaluation_peak_is_a_fraction_of_one_slice(traced_peak, decode_mode):
    # at the default slice and d = 10,000, scores decoded for a whole slice
    # peaked at 2.09-2.13 of its (rows, d) float64 arrays; in blocks of
    # DECODE_ROWS rows, at 0.150
    d, m = 10_000, 400
    rng = np.random.default_rng(0)
    test = [tuple(SparseInstance.from_items(d, rng.choice(d, size=6) + 1)
                  for _ in range(2)) for _ in range(300)]
    h_in = build_hash_matrix(d, m, 4, 1)
    h_out = build_hash_matrix(d, m, 4, 2)
    net = init_network(NetworkSpec(layer_sizes=(m, 100, m)))
    peak = traced_peak(evaluate_model, net, test, h_in, h_out,
                       decode_mode=decode_mode)
    one_slice = experiment.EVAL_SLICE * d * 8
    assert peak < one_slice / 4, peak / one_slice


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


@pytest.mark.parametrize("mode", [{"decode_mode": "foo"}, {"measure": "foo"}],
                         ids=["decode-foo", "measure-foo"])
def test_evaluate_model_rejects_unknown_modes_before_the_forward_pass(
        trained, monkeypatch, mode):
    ds, h_in, h_out, net = trained

    def forward(*args):
        raise AssertionError("the forward pass ran before the modes were checked")

    monkeypatch.setattr(experiment, "forward_batch", forward)
    with pytest.raises(ValueError, match="'foo'"):
        evaluate_model(net, ds.test_profiles(), h_in, h_out, **mode)


@pytest.mark.parametrize("measure", ["MAP", "RR"])
def test_evaluate_model_rejects_a_profile_without_targets_before_the_forward_pass(
        trained, monkeypatch, measure):
    # its average precision would divide by zero relevant items
    ds, h_in, h_out, net = trained
    test = ds.test_profiles()
    test = [*test[:3], (test[3][0], SparseInstance(ds.d, [])), *test[4:]]

    def forward(*args):
        raise AssertionError("the forward pass ran before the targets were checked")

    monkeypatch.setattr(experiment, "forward_batch", forward)
    with pytest.raises(ValueError, match="^profile 3 has no target items$"):
        evaluate_model(net, test, h_in, h_out, measure=measure)


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


@pytest.mark.parametrize("m_ratios,k_values,seeds,parallel", [
    ([2.0], [2], [0], 1), ([0.2], [0], [0], 1), ([0.2], [201], [0], 1),
    ([], [2], [0], 1), ([0.2], [], [0], 1), ([0.2], [2], [0], 0),
    ([0.2], [2], [0, -1], 1)],
    ids=["ratio-2", "k-0", "k-above-d", "no-ratio", "no-k", "parallel-0",
         "seed-negative"])
def test_sweep_grid_faults_raise_before_any_cell(monkeypatch, m_ratios, k_values,
                                                 seeds, parallel):
    monkeypatch.setattr(experiment, "fit", _must_not_run)
    with pytest.raises(ConfigError):
        run_sweep(tiny_config(), m_ratios, k_values, seeds, parallel=parallel)


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
    # item ids are int32
    "d-2**31": {"d": 2**31},
    "noise-2": {"noise": 2.0},
    "optimizer": {"optimizer": "foo"},
    "beta1": {"beta1": 1.5},
    "k-0": {"k": 0},
    "k-above-m": {"k": 5, "m_in": 4},
    "m-out-0": {"m_out": 0, "k": 1},
    "data-format": {"data_format": "csv"},
    # numpy's generators take no negative seed
    "data-seed-negative": {"data_seed": -1},
    "init-seed-negative": {"init_seed": -2},
    "shuffle-seed-negative": {"shuffle_seed": -3},
    # a clip norm <= 0 scales each step against the gradient, or to nothing
    "clip-norm-negative": {"clip_norm": -1.0},
    "clip-norm-0": {"clip_norm": 0.0},
    # momentum 1 or more never decays the velocity; NaN poisons it
    "momentum-nan": {"optimizer": "sgd", "momentum": float("nan")},
    "momentum-1.5": {"momentum": 1.5},
    "momentum-negative": {"momentum": -1.0},
    # no rating compares >= NaN, yet NaN kept every row like None
    "rating-threshold-nan": {"rating_threshold": float("nan")},
}


@pytest.mark.parametrize("bad", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS)
def test_config_faults_raise_when_built(bad):
    with pytest.raises(ConfigError):
        dataclasses.replace(ExperimentConfig(), **bad)


def test_config_checks_k_only_for_an_embedding_and_data_only_if_synthetic():
    ExperimentConfig(baseline=True, k=5, m_in=4)
    ExperimentConfig(data_path="profiles.txt", d=1, n_clusters=0)


DIVERGED = "epoch 1: non-finite activation in forward pass"


# NaN output biases make only the BE cells diverge; at lr 1e30 every cell's
# first Adam step overflows the next forward pass, which must raise, not warn
@pytest.mark.parametrize("overrides,baseline_error", [
    ({}, ""), ({"learning_rate": 1e30}, DIVERGED)], ids=["nan-bias", "lr-1e30"])
def test_diverged_sweep_cells_say_why(monkeypatch, overrides, baseline_error):
    def diverging_network(spec):
        net = init_network(spec)
        if spec.layer_sizes[0] < 200:  # the BE cells' m = 40, not d = 200
            net.biases[-1][:] = np.nan
        return net

    monkeypatch.setattr(experiment, "init_network", diverging_network)
    rows = run_sweep(tiny_config(**overrides), [0.2], [2], [0, 1])
    reason = DIVERGED
    base = ("baseline", bool(baseline_error), baseline_error)
    assert [(r["variant"], np.isnan(r["S_i"]), r["error"]) for r in rows] == [
        base, base, ("be", True, reason), ("be", True, reason)]
    lines = sweep_rows_tsv(rows).splitlines()
    assert [line.split("\t")[-1] for line in lines] == [
        "error", baseline_error, baseline_error, reason, reason]


def write_skewed_triples(path) -> None:
    """Profiles 1 2 x y 3 4 in time order, x and y drawn from items 5..30:
    every split puts item 1 in the input and item 4 in the target, mostly
    with 2 and 3, so both sides count some pairs far above the average."""
    rng = np.random.default_rng(5)
    lines = []
    for user in range(120):
        middle = rng.choice(np.arange(5, 31), size=2, replace=False)
        for t, item in enumerate([1, 2, *middle, 3, 4]):
            lines.append(f"u{user} {item} {t}")
    path.write_text("\n".join(lines) + "\n")


def test_cbe_gives_the_most_frequent_pair_a_shared_bit(tmp_path):
    path = tmp_path / "skewed.txt"
    write_skewed_triples(path)
    cfg = ExperimentConfig(data_path=str(path), use_cbe=True, m_in=12,
                           m_out=12, k=2, epochs=2)
    ds = load_dataset(cfg)
    rebuilt = build_matrices(cfg, ds)
    plain = build_matrices(dataclasses.replace(cfg, use_cbe=False), ds)
    for side in (0, 1):
        assert not np.array_equal(rebuilt[side].rows, plain[side].rows)
        table = count_cooccurrences([p[side] for p in ds.train_profiles()])
        # the last pair steered is the one with the highest count
        a, b = threshold_and_order(table)[-1]
        assert table.values[(table.rows == a) & (table.cols == b)] == \
            table.values.max()
        rows = rebuilt[side].rows
        assert set(rows[a - 1].tolist()) & set(rows[b - 1].tolist())
    assert np.isfinite(run_experiment(cfg).evaluation.score)


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
