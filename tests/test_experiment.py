"""Pipeline contracts: evaluation against the metric oracle, sweep parity."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bloomemb
from bloomemb.codec import ScoreOrder, decode_likelihood_batch, decode_nll_batch, \
    encode_batch, rank_batch
from bloomemb.experiment import (ExperimentConfig, _ranks, build_matrices,
                                 evaluate_model, fit, load_dataset, run_sweep)
from bloomemb.metrics import average_precision, reciprocal_rank
from bloomemb.trainer import forward_batch


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


def test_import_does_not_load_scipy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(bloomemb.__file__).resolve().parents[1]))
    code = "import sys, bloomemb; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
