"""Reproducible experiment pipelines: single runs and sweep grids.

An experiment is described by a flat config (round-trippable through a
``key=value`` file, ``#`` comments allowed). A run loads or generates the
dataset, builds input/output hash matrices (optionally rebuilt from
co-occurrence statistics), trains the feed-forward model on encoded
instances, and evaluates ranked recovery on the held-out test profiles.
The no-embedding baseline is the identity embedding (m = d, k = 1) and
runs through the same encode, train, decode and rank path.

Sweeps run one cell per (k, m/d, seed) plus per-seed baseline cells and
emit TSV rows with score and time ratios against the seed-matched
baseline. A sweep loads its dataset once and checks its grid against it
before any cell runs; a bad grid raises :class:`ConfigError`. Every cell
trains on that one dataset, and each pool worker receives it once, when
the worker starts.
"""

from __future__ import annotations

import dataclasses
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cbe as cbe_mod
from .codec import SparseInstance, decode_likelihood_batch, decode_nll_batch, \
    encode_batch
from .data import ProfileDataset, SyntheticSpec, generate_synthetic, load_profiles
from .hashing import HashMatrix, build_hash_matrix, identity_hash_matrix
from .metrics import EvaluationResult, Measure
from .trainer import Network, NetworkSpec, OptimizerSpec, TrainReport, \
    forward_batch, init_network, train


class ConfigError(ValueError):
    """Invalid configuration value, flag combination or sweep grid."""


SWEEP_COLUMNS = ("measure", "variant", "k", "m_ratio", "seed", "S_i", "S_0",
                 "score_ratio", "train_time_ratio", "eval_time_ratio")


@dataclass
class ExperimentConfig:
    # data: either a profile file or a synthetic cluster dataset
    data_path: str | None = None
    data_format: str = "auto"
    min_item_count: int = 1
    min_profile_size: int = 2
    rating_threshold: float | None = None
    d: int = 2000
    n: int = 20000
    n_clusters: int = 50
    profile_size_min: int = 4
    profile_size_max: int = 12
    noise: float = 0.05
    data_seed: int = 0
    test_size: float = 0.1
    # embedding
    baseline: bool = False
    m_in: int = 400
    m_out: int = 400
    k: int = 4
    hash_seed_in: int = 1
    hash_seed_out: int = 2
    use_cbe: bool = False
    cbe_seed: int = 3
    # network and training
    hidden: tuple[int, ...] = (100,)
    init_seed: int = 0
    optimizer: str = "adam"
    learning_rate: float = 0.001
    momentum: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    clip_norm: float | None = None
    epochs: int = 4
    batch_size: int = 128
    shuffle_seed: int = 0
    # evaluation
    decode_mode: str = "likelihood"
    measure: str = "MAP"
    top_n: int | None = None

    def __post_init__(self):
        if self.decode_mode not in ("likelihood", "nll"):
            raise ValueError(f"decode_mode must be likelihood or nll, got "
                             f"{self.decode_mode!r}")
        if self.measure not in ("MAP", "RR"):
            raise ValueError(f"measure must be MAP or RR, got {self.measure!r}")
        if self.top_n is not None and self.top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {self.top_n}")
        if not 0 < self.test_size < 1:
            raise ValueError(f"test_size must lie in (0, 1), got {self.test_size}")
        if isinstance(self.hidden, list):
            self.hidden = tuple(self.hidden)


# -- config file round-trip --------------------------------------------------


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(text: str, annotation):
    text = text.strip()
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):  # Optional[...]
        if text.lower() == "none":
            return None
        inner = [a for a in typing.get_args(annotation) if a is not type(None)]
        return _parse_value(text, inner[0])
    if annotation is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if annotation is int:
        return int(text)
    if annotation is float:
        return float(text)
    if origin is tuple:
        if not text:
            return ()
        return tuple(int(v) for v in text.split(","))
    return text


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = ["# bloomemb experiment config"]
    for f in dataclasses.fields(cfg):
        lines.append(f"{f.name}={_format_value(getattr(cfg, f.name))}")
    return "\n".join(lines) + "\n"


def config_from_text(text: str) -> ExperimentConfig:
    hints = typing.get_type_hints(ExperimentConfig)
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in fields:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _parse_value(val, hints[key])
    return ExperimentConfig(**values)


# -- pipeline ----------------------------------------------------------------

def load_dataset(cfg: ExperimentConfig) -> ProfileDataset:
    """Read or generate the configured dataset, split into train and test.

    A test_size that rounds to none or to all of the profiles leaves a split
    empty and raises ConfigError, before any work on the data starts.
    """
    if cfg.data_path is not None:
        ds = load_profiles(cfg.data_path, min_item_count=cfg.min_item_count,
                           min_profile_size=cfg.min_profile_size,
                           fmt=cfg.data_format,
                           rating_threshold=cfg.rating_threshold,
                           test_size=cfg.test_size, seed=cfg.data_seed)
    else:
        ds = generate_synthetic(SyntheticSpec(
            d=cfg.d, n=cfg.n, n_clusters=cfg.n_clusters,
            profile_size_min=cfg.profile_size_min,
            profile_size_max=cfg.profile_size_max, noise=cfg.noise,
            test_size=cfg.test_size, seed=cfg.data_seed))
    if not ds.train or not ds.test:
        raise ConfigError(f"test_size {cfg.test_size} leaves no training or "
                          f"no test profiles")
    return ds


def build_matrices(cfg: ExperimentConfig, ds: ProfileDataset
                   ) -> tuple[HashMatrix, HashMatrix]:
    """Input/output hash matrices for a run; the identity for the baseline."""
    if cfg.baseline:
        identity = identity_hash_matrix(ds.d)
        return identity, identity
    h_in = build_hash_matrix(ds.d, cfg.m_in, cfg.k, cfg.hash_seed_in)
    h_out = build_hash_matrix(ds.d, cfg.m_out, cfg.k, cfg.hash_seed_out)
    if cfg.use_cbe:
        train_profiles = ds.train_profiles()
        table_in = cbe_mod.count_cooccurrences([p[0] for p in train_profiles])
        pairs_in = cbe_mod.threshold_and_order(table_in)
        h_in = cbe_mod.rebuild_hash_matrix(h_in, pairs_in, cfg.cbe_seed)
        table_out = cbe_mod.count_cooccurrences([p[1] for p in train_profiles])
        pairs_out = cbe_mod.threshold_and_order(table_out)
        h_out = cbe_mod.rebuild_hash_matrix(h_out, pairs_out, cfg.cbe_seed + 1)
    return h_in, h_out


def _ranks(row: np.ndarray, items: np.ndarray, descending: bool) -> np.ndarray:
    """1-based ranks of `items` (1-based ids) in the best-first order of `row`.

    Item p is preceded by every item that beats it (scores higher when
    `descending`, lower otherwise) and by every lower id that ties it: the
    order of a stable sort. Both counts come from one sort of the row's
    values and binary searches of the relevant scores in it, so the cost is
    O(d log d) per row whatever the number of relevant items.
    """
    d = row.size
    values = row[items - 1]
    ordered = np.sort(row)
    lo = np.searchsorted(ordered, values, "left")
    hi = np.searchsorted(ordered, values, "right")
    ranks = 1 + (d - hi if descending else lo)
    tied = hi - lo > 1
    if tied.any():
        # count the equal scores at lower ids, keyed (tie group, id)
        groups = np.unique(values[tied])
        slot = np.minimum(np.searchsorted(groups, row), groups.size - 1)
        ids = np.flatnonzero(groups[slot] == row)
        keys = np.sort(slot[ids] * d + ids)
        first = np.searchsorted(groups, values[tied]) * d
        ranks[tied] += (np.searchsorted(keys, first + items[tied] - 1)
                        - np.searchsorted(keys, first))
    return ranks


def evaluate_model(net: Network,
                   test_profiles: Sequence[tuple[SparseInstance, SparseInstance]],
                   hash_in: HashMatrix | None,
                   hash_out: HashMatrix | None,
                   decode_mode: str = "likelihood",
                   measure: str = "MAP",
                   top_n: int | None = None) -> EvaluationResult:
    """Ranked-recovery evaluation over held-out profiles (MAP or RR).

    hash_in/hash_out None = identity (the no-embedding baseline). Only the
    relevant items are ranked, each by counting: for decoded scores s, item
    p ranks 1 + #{j : s_j beats s_p} + #{j < p : s_j = s_p}, where beating
    means a higher likelihood or a lower NLL. Ties thus go to the lower item
    id, as in :func:`bloomemb.codec.rank_batch`. The counts are binary
    searches in a sort of each row's values; no item permutation is built.
    Items ranked below `top_n` count as not retrieved.
    """
    if not test_profiles:
        raise ValueError("no test profiles to evaluate")
    d = test_profiles[0][1].d
    depth = top_n if top_n is not None else d
    if not 1 <= depth <= d:
        raise ValueError(f"top_n {top_n} out of range [1, {d}]")
    if hash_in is None:
        hash_in = identity_hash_matrix(test_profiles[0][0].d)
    if hash_out is None:
        hash_out = identity_hash_matrix(d)
    t0 = time.perf_counter()
    x = encode_batch([p[0] for p in test_profiles], hash_in)
    probs = forward_batch(net, x.astype(net.dtype)).astype(np.float64)
    if decode_mode == "likelihood":
        scores = decode_likelihood_batch(probs, hash_out)
    else:
        scores = decode_nll_batch(probs, hash_out)
    descending = decode_mode == "likelihood"
    values = []
    for row, (_, out) in zip(scores, test_profiles):
        if measure == "MAP":
            ranks = np.sort(_ranks(row, out.positions, descending))
            ranks = ranks[ranks <= depth]
            hits = np.arange(1, ranks.size + 1, dtype=np.float64)
            values.append(float((hits / ranks).sum() / out.c))
        else:
            correct = out.positions.min(keepdims=True)
            r = int(_ranks(row, correct, descending)[0])
            values.append(1.0 / r if r <= depth else 0.0)
    wall = time.perf_counter() - t0
    return EvaluationResult(score=float(np.mean(values)),
                            measure=Measure(measure), n_evaluated=len(values),
                            wall_time=wall)


@dataclass
class ExperimentOutcome:
    config: ExperimentConfig
    evaluation: EvaluationResult
    training: TrainReport

    @property
    def train_time_per_epoch(self) -> float:
        times = self.training.epoch_times
        return float(np.mean(times)) if times else 0.0


def fit(cfg: ExperimentConfig, ds: ProfileDataset, h_in: HashMatrix,
        h_out: HashMatrix) -> tuple[Network, TrainReport]:
    """Initialise the configured network and train it on the training split."""
    spec = NetworkSpec(layer_sizes=(h_in.m, *cfg.hidden, h_out.m),
                       init_seed=cfg.init_seed)
    net = init_network(spec)
    optimizer = OptimizerSpec(kind=cfg.optimizer, learning_rate=cfg.learning_rate,
                              momentum=cfg.momentum, beta1=cfg.beta1,
                              beta2=cfg.beta2, clip_norm=cfg.clip_norm)
    report = train(net, ds.train_profiles(), h_in, h_out, optimizer,
                   epochs=cfg.epochs, batch_size=cfg.batch_size,
                   shuffle_seed=cfg.shuffle_seed)
    return net, report


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutcome:
    return _run(cfg, load_dataset(cfg))


def _run(cfg: ExperimentConfig, ds: ProfileDataset) -> ExperimentOutcome:
    h_in, h_out = build_matrices(cfg, ds)
    net, report = fit(cfg, ds, h_in, h_out)
    evaluation = evaluate_model(net, ds.test_profiles(), h_in, h_out,
                                decode_mode=cfg.decode_mode, measure=cfg.measure,
                                top_n=cfg.top_n)
    return ExperimentOutcome(config=cfg, evaluation=evaluation, training=report)


# -- sweeps ------------------------------------------------------------------


def _cell_config(base: ExperimentConfig, d: int, m_ratio: float, k: int,
                 seed: int, variant: str) -> ExperimentConfig:
    """One sweep cell's config; m = max(k, round(m_ratio * d)) on d items."""
    cfg = dataclasses.replace(base)
    cfg.init_seed = base.init_seed + seed
    cfg.shuffle_seed = base.shuffle_seed + seed
    if variant == "baseline":
        cfg.baseline = True
        return cfg
    m = max(k, int(round(m_ratio * d)))
    cfg.baseline = False
    cfg.m_in = m
    cfg.m_out = m
    cfg.k = k
    cfg.hash_seed_in = base.hash_seed_in + 7919 * seed
    cfg.hash_seed_out = base.hash_seed_out + 7919 * seed
    cfg.use_cbe = base.use_cbe
    cfg.cbe_seed = base.cbe_seed + 7919 * seed
    return cfg


def _run_cell(cfg: ExperimentConfig, ds: ProfileDataset) -> dict:
    try:
        outcome = _run(cfg, ds)
    except FloatingPointError:
        nan = float("nan")
        return {"S_i": nan, "train_time": nan, "eval_time": nan}
    return {"S_i": outcome.evaluation.score,
            "train_time": outcome.train_time_per_epoch,
            "eval_time": outcome.evaluation.wall_time}


# The sweep's dataset inside a pool worker, set once when the worker starts.
_worker_dataset: ProfileDataset | None = None


def _init_worker(ds: ProfileDataset) -> None:
    global _worker_dataset
    _worker_dataset = ds


def _run_worker_cell(cfg: ExperimentConfig) -> dict:
    return _run_cell(cfg, _worker_dataset)


def _check_grid(base: ExperimentConfig, ds: ProfileDataset,
                k_values: Sequence[int]) -> None:
    if base.top_n is not None and base.top_n > ds.d:
        raise ConfigError(f"top_n {base.top_n} exceeds the dataset's {ds.d} items")
    if any(not 1 <= k <= ds.d for k in k_values):
        raise ConfigError(f"k values must lie in [1, {ds.d}]")


def run_sweep(base: ExperimentConfig, m_ratios: Sequence[float],
              k_values: Sequence[int], seeds: Sequence[int],
              parallel: int = 1) -> list[dict]:
    """Grid of (k, m/d, seed) cells plus per-seed no-embedding baselines.

    The dataset is loaded once, and a cell's m is its ratio of the loaded
    dataset's d. Before any cell runs, the grid is checked against it:
    nonempty, every ratio in (0, 1], every k in [1, d] and top_n at most d;
    a fault, or a split left empty, raises ConfigError.
    Serial cells share the loaded dataset; with `parallel` > 1 each pool
    worker receives it once, when it starts.

    Returns rows sorted by (k, m/d, seed); baseline rows carry the nominal
    point (k=1, m/d=1.0) and ratio 1 by construction. Cells whose training
    diverges are reported as NaN rows.
    """
    m_ratios = [float(r) for r in m_ratios]
    k_values = [int(k) for k in k_values]
    seeds = [int(s) for s in seeds]
    if not m_ratios or not k_values or not seeds:
        raise ConfigError("sweep grid must be nonempty")
    if any(not 0 < r <= 1.0 for r in m_ratios):
        raise ConfigError("m ratios must lie in (0, 1]")
    ds = load_dataset(base)
    _check_grid(base, ds, k_values)

    variant = "cbe" if base.use_cbe else "be"
    cells = [("baseline", 1, 1.0, seed) for seed in seeds]
    cells += [(variant, k, ratio, seed) for k in sorted(k_values)
              for ratio in sorted(m_ratios) for seed in seeds]
    configs = [_cell_config(base, ds.d, ratio, k, seed, v)
               for v, k, ratio, seed in cells]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel, initializer=_init_worker,
                                 initargs=(ds,)) as pool:
            results = list(pool.map(_run_worker_cell, configs))
    else:
        results = [_run_cell(cfg, ds) for cfg in configs]
    rows = [{"measure": base.measure, "variant": v, "k": k, "m_ratio": ratio,
             "seed": seed, **result}
            for (v, k, ratio, seed), result in zip(cells, results)]

    baselines = {row["seed"]: row for row in rows if row["variant"] == "baseline"}
    for row in rows:
        ref = baselines.get(row["seed"])
        if ref is None or not ref["S_i"] or np.isnan(ref["S_i"]):
            row["S_0"] = float("nan")
        else:
            row["S_0"] = ref["S_i"]
        row["score_ratio"] = row["S_i"] / row["S_0"] if row["S_0"] else float("nan")
        row["train_time_ratio"] = (row["train_time"] / ref["train_time"]
                                   if ref and ref["train_time"] else float("nan"))
        row["eval_time_ratio"] = (row["eval_time"] / ref["eval_time"]
                                  if ref and ref["eval_time"] else float("nan"))
    rows.sort(key=lambda r: (r["k"], r["m_ratio"], r["seed"],
                             r["variant"] != "baseline"))
    return rows


def sweep_rows_tsv(rows: Sequence[dict]) -> str:
    lines = ["\t".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            v = row.get(col)
            if isinstance(v, float):
                cells.append(f"{v:.6g}")
            else:
                cells.append(str(v))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
