"""One repetition of a workload, in a fresh process so the dataset cache is cold.

    python3 bench/rep.py '<job json>'

Modes:

* ``run`` — the untraced pipeline call (``run_experiment`` or ``run_sweep``)
  and the raw numbers the end-to-end metrics derive from;
* ``trace`` — the traced replay: every stage called through the public API
  inside a span, plus, for the sweep, the serial ``run_sweep`` it is
  checked against;
* ``reference`` — cbe-zipf only: the same run with CBE off, whose score is
  the base of ``score_ratio``, and the check that CBE really rebuilds both
  matrices on this data.

The last line of standard output is a JSON object. A failed correctness
check prints ``{"check_failed": reason}`` and exits with code 3; any other
exception exits with code 1.
"""

import time

_T0 = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from bloomemb import (ExperimentConfig, NetworkSpec, OptimizerSpec,  # noqa: E402
                      ScoreOrder, SyntheticSpec, average_precision,
                      backward_and_step, build_hash_matrix,
                      count_cooccurrences, decode_likelihood_batch,
                      decode_nll_batch, encode_batch, evaluate_model,
                      forward_batch, generate_synthetic, init_network,
                      load_profiles, multi_hot, rank_batch,
                      rebuild_hash_matrix, run_experiment, run_sweep,
                      threshold_and_order, train)
from bloomemb import kernels  # noqa: E402
from bloomemb.trainer import gradients  # noqa: E402

from tracing import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

MAP_SAMPLE = 200      # test profiles whose MAP is recomputed item by item
BATCH_SAMPLE = 20     # training batches timed one call at a time
MAP_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """The package's output is wrong; the run measures nothing."""


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "numba_enabled": kernels.NUMBA_ENABLED,
    }


def peak_rss_mb(with_children: bool = False) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:  # largest finished child, e.g. one sweep pool worker
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# -- untraced ------------------------------------------------------------------


def run_single(cfg: ExperimentConfig) -> dict:
    t0 = time.perf_counter()
    outcome = run_experiment(cfg)
    run_s = time.perf_counter() - t0
    return {"import_s": IMPORT_S, "run_s": run_s,
            "train_wall_s": outcome.training.wall_time,
            "epoch_s": sum(outcome.training.epoch_times),
            "epochs": outcome.training.epochs,
            "final_loss": outcome.training.final_loss,
            "eval_s": outcome.evaluation.wall_time,
            "n_test": outcome.evaluation.n_evaluated,
            "score": outcome.evaluation.score,
            "peak_rss_mb": peak_rss_mb()}


def sweep_rows(base: ExperimentConfig, grid: dict, parallel: int) -> list[dict]:
    rows = run_sweep(base, grid["m_ratios"], grid["k_values"], grid["seeds"],
                     parallel=parallel)
    keys = ("variant", "k", "m_ratio", "seed", "S_i", "score_ratio",
            "train_time", "eval_time", "train_time_ratio", "eval_time_ratio")
    return [{k: row[k] for k in keys} for row in rows]


def run_grid(base: ExperimentConfig, grid: dict, parallel: int) -> dict:
    t0 = time.perf_counter()
    rows = sweep_rows(base, grid, parallel)
    wall = time.perf_counter() - t0
    return {"import_s": IMPORT_S, "wall_s": wall, "rows": rows,
            "peak_rss_mb": peak_rss_mb(with_children=True)}


# -- traced replay -------------------------------------------------------------


class _SkipCounter(logging.Handler):
    """Counts the pairs ``rebuild_hash_matrix`` skips (one warning each)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def load_data(cfg: ExperimentConfig, tracer: Tracer):
    if cfg.data_path is not None:
        with tracer.span("data.load_profiles") as s:
            ds = load_profiles(cfg.data_path, min_item_count=cfg.min_item_count,
                               min_profile_size=cfg.min_profile_size,
                               fmt=cfg.data_format,
                               rating_threshold=cfg.rating_threshold,
                               test_size=cfg.test_size, seed=cfg.data_seed)
    else:
        spec = SyntheticSpec(d=cfg.d, n=cfg.n, n_clusters=cfg.n_clusters,
                             profile_size_min=cfg.profile_size_min,
                             profile_size_max=cfg.profile_size_max,
                             noise=cfg.noise, test_size=cfg.test_size,
                             seed=cfg.data_seed)
        with tracer.span("data.generate_synthetic") as s:
            ds = generate_synthetic(spec)
    s.attrs["profiles"] = ds.n
    return ds


def cbe_rebuild(matrix, instances, seed: int, tracer: Tracer):
    with tracer.span("cbe.count_cooccurrences") as s:
        table = count_cooccurrences(instances)
    s.attrs["pairs"] = int(table.values.size)
    with tracer.span("cbe.threshold_and_order") as s:
        pairs = threshold_and_order(table)
    s.attrs["pairs"] = len(pairs)
    if len(pairs) == 0:
        raise CheckFailed("CBE selected 0 pairs, so it would be a no-op")
    counter = _SkipCounter()
    cbe_logger = logging.getLogger("bloomemb.cbe")
    cbe_logger.addHandler(counter)
    try:
        with tracer.span("cbe.rebuild_hash_matrix") as s:
            rebuilt = rebuild_hash_matrix(matrix, pairs, seed)
    finally:
        cbe_logger.removeHandler(counter)
    s.attrs["skipped"] = counter.count
    return rebuilt


def build_matrices(cfg: ExperimentConfig, ds, train_p, tracer: Tracer):
    if cfg.baseline:
        return None, None
    with tracer.span("hashing.build_hash_matrix", rows=ds.d):
        h_in = build_hash_matrix(ds.d, cfg.m_in, cfg.k, cfg.hash_seed_in)
    with tracer.span("hashing.build_hash_matrix", rows=ds.d):
        h_out = build_hash_matrix(ds.d, cfg.m_out, cfg.k, cfg.hash_seed_out)
    if cfg.use_cbe:
        plain = h_in
        h_in = cbe_rebuild(h_in, [p[0] for p in train_p], cfg.cbe_seed, tracer)
        h_out = cbe_rebuild(h_out, [p[1] for p in train_p], cfg.cbe_seed + 1, tracer)
        if np.array_equal(h_in.rows, plain.rows):
            raise CheckFailed("the CBE-rebuilt input matrix equals the plain one")
    return h_in, h_out


def encode(instances, matrix, d: int, side: str, tracer: Tracer, parent=None):
    """Bits of `instances`: Bloom encoding, or multi-hot for the baseline."""
    if matrix is None:
        with tracer.span("trainer.multi_hot", parent) as s:
            bits = multi_hot(instances, d)
    else:
        with tracer.span("codec.encode_batch", parent) as s:
            bits = encode_batch(instances, matrix)
    s.attrs[f"bits_{side}"] = int(bits.sum(dtype=np.int64))
    s.attrs[f"cells_{side}"] = int(bits.size)
    return bits


def ranked_items(net, profiles, h_in, h_out, cfg, tracer: Tracer, parent=None):
    """The stages of ``evaluate_model`` before its metric loop."""
    d = profiles[0][0].d
    x = encode([p[0] for p in profiles], h_in, d, "in", tracer, parent)
    with tracer.span("trainer.forward_batch", parent):
        probs = forward_batch(net, x.astype(net.dtype)).astype(np.float64)
    if h_out is None:
        scores, ordering = probs, ScoreOrder.DESCENDING_LIKELIHOOD
    else:
        with tracer.span("codec.decode_batch", parent, items=probs.shape[0] * d):
            if cfg.decode_mode == "likelihood":
                scores, ordering = (decode_likelihood_batch(probs, h_out),
                                    ScoreOrder.DESCENDING_LIKELIHOOD)
            else:
                scores, ordering = (decode_nll_batch(probs, h_out),
                                    ScoreOrder.ASCENDING_NLL)
    with tracer.span("codec.rank_batch", parent):
        return rank_batch(scores, ordering, cfg.top_n or d)


def check_map(net, sample, h_in, h_out, cfg, tracer: Tracer) -> None:
    """MAP of `sample` item by item, against ``evaluate_model``."""
    expected = evaluate_model(net, sample, h_in, h_out, decode_mode=cfg.decode_mode,
                              measure=cfg.measure, top_n=cfg.top_n).score
    ranked = ranked_items(net, sample, h_in, h_out, cfg, Tracer())
    with tracer.span("metrics.average_precision"):
        got = statistics.fmean(
            average_precision(row.tolist(), set(out.positions.tolist()))
            for row, (_, out) in zip(ranked, sample))
    if not abs(got - expected) <= MAP_TOLERANCE:
        raise CheckFailed(f"MAP recomputed from rank_batch and average_precision "
                          f"is {got!r}, evaluate_model says {expected!r}")


def time_batches(net, optimizer, x_bits, t_bits, batch_size, tracer: Tracer):
    """Per-call times of one train step's parts on real training batches."""
    perm = np.random.default_rng(0).permutation(x_bits.shape[0])
    state = None
    with tracer.span("trainer.batch_sample"):
        for b in range(BATCH_SAMPLE):
            idx = perm[b * batch_size:(b + 1) * batch_size]
            if idx.size == 0:
                break
            xb = x_bits[idx].astype(net.dtype)
            tb = t_bits[idx].astype(net.dtype)
            tb /= tb.sum(axis=1, keepdims=True)
            with tracer.span("trainer.batch.forward_batch"):
                forward_batch(net, xb)
            with tracer.span("trainer.batch.gradients"):
                gradients(net, xb, tb)
            with tracer.span("trainer.batch.backward_and_step"):
                _, state = backward_and_step(net, (xb, tb), optimizer, state)


def replay(cfg: ExperimentConfig, tracer: Tracer) -> float:
    """``run_experiment`` stage by stage; returns the held-out score."""
    with tracer.span("experiment.run"):
        ds = load_data(cfg, tracer)
        train_p, test_p = ds.train_profiles(), ds.test_profiles()
        h_in, h_out = build_matrices(cfg, ds, train_p, tracer)
        n_in = ds.d if h_in is None else h_in.m
        n_out = ds.d if h_out is None else h_out.m
        net = init_network(NetworkSpec(layer_sizes=(n_in, *cfg.hidden, n_out),
                                       init_seed=cfg.init_seed))
        optimizer = OptimizerSpec(kind=cfg.optimizer, learning_rate=cfg.learning_rate,
                                  momentum=cfg.momentum, beta1=cfg.beta1,
                                  beta2=cfg.beta2, clip_norm=cfg.clip_norm)
        with tracer.span("trainer.train") as tr:
            report = train(net, train_p, h_in, h_out, optimizer, epochs=cfg.epochs,
                           batch_size=cfg.batch_size, shuffle_seed=cfg.shuffle_seed)
        tr.attrs["steps"] = cfg.epochs * math.ceil(len(train_p) / cfg.batch_size)
        tr.attrs["final_loss"] = report.final_loss
        x_bits = encode([p[0] for p in train_p], h_in, ds.d, "in", tracer, tr)
        t_bits = encode([p[1] for p in train_p], h_out, ds.d, "out", tracer, tr)

        with tracer.span("experiment.evaluate_model") as ev:
            result = evaluate_model(net, test_p, h_in, h_out,
                                    decode_mode=cfg.decode_mode,
                                    measure=cfg.measure, top_n=cfg.top_n)
        ranked_items(net, test_p, h_in, h_out, cfg, tracer, ev)
        check_map(net, test_p[:MAP_SAMPLE], h_in, h_out, cfg, tracer)
        time_batches(net, optimizer, x_bits, t_bits, cfg.batch_size, tracer)
    return result.score


def cell_configs(base: ExperimentConfig, grid: dict) -> dict[tuple, ExperimentConfig]:
    """The sweep's cells keyed like its rows: (variant, k, m/d, seed).

    The derived seeds follow ``run_sweep``'s rule; comparing replayed and
    swept scores checks that they still do.
    """
    cells = {("baseline", 1, 1.0, s): dataclasses.replace(
        base, baseline=True, init_seed=base.init_seed + s,
        shuffle_seed=base.shuffle_seed + s) for s in grid["seeds"]}
    for k in grid["k_values"]:
        for ratio in grid["m_ratios"]:
            for s in grid["seeds"]:
                m = max(k, int(round(ratio * base.d)))
                cells[("be", k, float(ratio), s)] = dataclasses.replace(
                    base, baseline=False, m_in=m, m_out=m, k=k,
                    init_seed=base.init_seed + s, shuffle_seed=base.shuffle_seed + s,
                    hash_seed_in=base.hash_seed_in + 7919 * s,
                    hash_seed_out=base.hash_seed_out + 7919 * s)
    return cells


def trace_grid(base: ExperimentConfig, grid: dict, tracer: Tracer) -> dict:
    """Serial ``run_sweep``, then every cell replayed; scores must agree."""
    with tracer.span("experiment.run_sweep") as sw:
        rows = sweep_rows(base, grid, parallel=1)
    be = [r for r in rows if r["variant"] != "baseline"]
    sw.attrs.update(
        cell_train_s=statistics.median(base.epochs * r["train_time"] for r in rows),
        train_time_ratio=statistics.median(r["train_time_ratio"] for r in be),
        eval_time_ratio=statistics.median(r["eval_time_ratio"] for r in be),
        cells_nan=sum(math.isnan(r["S_i"]) for r in rows))
    for key, cell in cell_configs(base, grid).items():
        swept = [r["S_i"] for r in rows
                 if (r["variant"], r["k"], r["m_ratio"], r["seed"]) == key]
        score = replay(cell, tracer)
        if swept != [score]:
            raise CheckFailed(f"sweep cell {key}: replayed score {score!r}, "
                              f"run_sweep gave {swept!r}")
    return {"rows": rows}


def main(job: dict) -> dict:
    cfg = ExperimentConfig(**job["cfg"])
    grid = job.get("grid")
    mode = job["mode"]
    if mode == "run":
        out = run_grid(cfg, grid, job["parallel"]) if grid else run_single(cfg)
    elif mode == "reference":
        out = run_single(dataclasses.replace(cfg, use_cbe=False))
        ds = load_data(cfg, Tracer())
        build_matrices(cfg, ds, ds.train_profiles(), Tracer())
    else:
        tracer = Tracer()
        if grid:
            out = trace_grid(cfg, grid, tracer)
        else:
            out = {"score": replay(cfg, tracer)}
        out["spans"] = tracer.as_json()
    out["environment"] = environment()
    return out


if __name__ == "__main__":
    try:
        result = main(json.loads(sys.argv[1]))
    except CheckFailed as exc:
        print(json.dumps({"check_failed": str(exc)}))
        sys.exit(3)
    print(json.dumps(result))
