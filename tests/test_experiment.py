"""Pipeline contracts: evaluation against the metric oracle, sweep parity."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bloomemb
from bloomemb.codec import ScoreOrder, decode_likelihood_batch, encode_batch, \
    rank_batch
from bloomemb.experiment import (ExperimentConfig, build_matrices,
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


@pytest.mark.parametrize("measure", ["MAP", "RR"])
def test_evaluate_model_map_equals_metric_oracle(measure):
    cfg = tiny_config()
    ds = load_dataset(cfg)
    h_in, h_out = build_matrices(cfg, ds)
    net, _ = fit(cfg, ds, h_in, h_out)
    test = ds.test_profiles()
    result = evaluate_model(net, test, h_in, h_out, measure=measure)

    x = encode_batch([p[0] for p in test], h_in).astype(net.dtype)
    probs = forward_batch(net, x).astype(np.float64)
    scores = decode_likelihood_batch(probs, h_out)
    ranked = rank_batch(scores, ScoreOrder.DESCENDING_LIKELIHOOD, ds.d)
    oracle = np.mean([ORACLES[measure](row.tolist(), out)
                      for row, (_, out) in zip(ranked, test)])
    assert result.score == pytest.approx(oracle, abs=1e-12)
    assert result.n_evaluated == len(test)


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
