"""Reproducible experiment pipelines: single runs and sweep grids.

An experiment is described by a flat, frozen :class:`ExperimentConfig`,
which :mod:`bloomemb.cli` reads from flags and ``.config`` text. A run loads
or generates the dataset, builds input/output hash matrices (optionally
rebuilt from co-occurrence statistics), trains the feed-forward model on
encoded instances, and evaluates ranked recovery on the held-out test
profiles: :data:`EVAL_SLICE` profiles at a time through the network, then
:data:`DECODE_ROWS` rows at a time through decoding and ranking, so
evaluation's largest arrays are one block's (rows, d) scores, not a
slice's or the test split's. Only a profile's relevant items are ranked:
by counting the better scores when they are few for d, else by one sort
of the row's scores. The no-embedding baseline is the identity
embedding (m = d, k = 1) and runs through the same encode, train, decode
and rank path.

Sweeps run one cell per (k, m/d, seed) plus per-seed baseline cells and
emit TSV rows with score and time ratios against the seed-matched
baseline. A sweep loads its dataset once and builds and checks every
cell's config before any cell runs; a bad grid raises :class:`ConfigError`.
Every cell trains on that one dataset, one after another in the calling
thread. A diverged cell's row is NaN and names the reason.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cbe as cbe_mod
from .codec import ScoreOrder, SparseInstance, decode_batch, encode_rows
from .data import ProfileDataset, SyntheticSpec, generate_synthetic, load_profiles
from .hashing import HashMatrix, build_hash_matrix, identity_hash_matrix
from .metrics import EvaluationResult
from .trainer import Network, NetworkSpec, OptimizerSpec, TrainReport, \
    forward_batch, init_network, packed_split, train


class ConfigError(ValueError):
    """Invalid configuration value, flag combination or sweep grid."""


# test profiles that evaluate_model encodes and runs forward at a time; a
# row's output bits can change with a BLAS call's row count, so scores are
# pinned at this size
EVAL_SLICE = 256
# rows of a slice's probabilities that evaluate_model decodes and ranks at
# a time: at d ~ 10k one block's float64 scores (631 kB) stay in cache
DECODE_ROWS = 8

SWEEP_COLUMNS = ("measure", "variant", "k", "m_ratio", "seed", "S_i", "S_0",
                 "score_ratio", "train_time_ratio", "eval_time_ratio", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, frozen and validated when built: a fault that
    needs no data raises :class:`ConfigError`, so every config that exists
    is valid. Derive variants with :func:`dataclasses.replace`.
    :func:`load_dataset` and :func:`build_matrices` check it against the data.
    """

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
        object.__setattr__(self, "hidden", tuple(self.hidden))
        m = min(self.m_in, self.m_out)
        for name, ok, rule in (
                ("data_format", self.data_format in ("auto", "triples", "profiles"),
                 "be auto, triples or profiles"),
                ("decode_mode", self.decode_mode in ("likelihood", "nll"),
                 "be likelihood or nll"),
                ("measure", self.measure in ("MAP", "RR"), "be MAP or RR"),
                ("top_n", self.top_n is None or self.top_n >= 1, "be >= 1"),
                ("test_size", 0 < self.test_size < 1, "lie in (0, 1)"),
                ("rating_threshold", self.rating_threshold is None
                 or not np.isnan(self.rating_threshold), "not be NaN"),
                ("hidden", all(h >= 1 for h in self.hidden), "hold sizes >= 1"),
                ("epochs", self.epochs >= 0, "be >= 0"),
                ("batch_size", self.batch_size >= 1, "be >= 1"),
                ("data_seed", self.data_seed >= 0, "be >= 0"),
                ("init_seed", self.init_seed >= 0, "be >= 0"),
                ("shuffle_seed", self.shuffle_seed >= 0, "be >= 0"),
                ("m_in", self.baseline or self.m_in >= 1, "be >= 1"),
                ("m_out", self.baseline or self.m_out >= 1, "be >= 1"),
                ("k", self.baseline or 1 <= self.k <= m,
                 f"lie in [1, min(m_in, m_out)] = [1, {m}]")):
            if not ok:
                raise ConfigError(f"{name} must {rule}, got {getattr(self, name)!r}")
        try:
            self.optimizer_spec()
            if self.data_path is None:
                self.synthetic_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def optimizer_spec(self) -> OptimizerSpec:
        return OptimizerSpec(kind=self.optimizer, learning_rate=self.learning_rate,
                             momentum=self.momentum, beta1=self.beta1,
                             beta2=self.beta2, clip_norm=self.clip_norm)

    def synthetic_spec(self) -> SyntheticSpec:
        return SyntheticSpec(d=self.d, n=self.n, n_clusters=self.n_clusters,
                             profile_size_min=self.profile_size_min,
                             profile_size_max=self.profile_size_max,
                             noise=self.noise, test_size=self.test_size,
                             seed=self.data_seed)


# -- pipeline ----------------------------------------------------------------

def load_dataset(cfg: ExperimentConfig) -> ProfileDataset:
    """Read or generate the configured dataset, split into train and test.

    A test_size that rounds to none or to all of the profiles leaves a split
    empty, and a top_n above the item count ranks past the end: both raise
    ConfigError, before any work on the data starts.
    """
    if cfg.data_path is not None:
        ds = load_profiles(cfg.data_path, min_item_count=cfg.min_item_count,
                           min_profile_size=cfg.min_profile_size,
                           fmt=cfg.data_format,
                           rating_threshold=cfg.rating_threshold,
                           test_size=cfg.test_size, seed=cfg.data_seed)
    else:
        ds = generate_synthetic(cfg.synthetic_spec())
    if not ds.train or not ds.test:
        raise ConfigError(f"test_size {cfg.test_size} leaves no training or "
                          f"no test profiles")
    if cfg.top_n is not None and cfg.top_n > ds.d:
        raise ConfigError(f"top_n {cfg.top_n} exceeds the dataset's {ds.d} items")
    return ds


def _check_embedding_fits(cfg: ExperimentConfig, d: int) -> None:
    """Raise ConfigError unless a Bloom embedding's m_in and m_out are <= d."""
    if not cfg.baseline and max(cfg.m_in, cfg.m_out) > d:
        raise ConfigError(f"m_in/m_out {cfg.m_in}/{cfg.m_out} exceed d={d}")


def build_matrices(cfg: ExperimentConfig, ds: ProfileDataset
                   ) -> tuple[HashMatrix, HashMatrix]:
    """Input/output hash matrices for a run; the identity for the baseline.
    CBE counts each side's co-occurrences straight from the packed split."""
    _check_embedding_fits(cfg, ds.d)
    if cfg.baseline:
        identity = identity_hash_matrix(ds.d)
        return identity, identity
    h_in = build_hash_matrix(ds.d, cfg.m_in, cfg.k, cfg.hash_seed_in)
    h_out = build_hash_matrix(ds.d, cfg.m_out, cfg.k, cfg.hash_seed_out)
    if cfg.use_cbe:
        steered = []
        for i, (matrix, side) in enumerate(((h_in, ds.train.inputs),
                                            (h_out, ds.train.targets))):
            pairs = cbe_mod.threshold_and_order(cbe_mod.count_cooccurrences(side))
            steered.append(cbe_mod.rebuild_hash_matrix(matrix, pairs, cfg.cbe_seed + i))
        h_in, h_out = steered
    return h_in, h_out


def _ranks_by_counting(c: int, d: int) -> bool:
    """Whether :func:`_ranks` counts the ranks of a row's c relevant items
    among d rather than sorting the row: while c <= sqrt(d) / 9."""
    return 81 * c * c <= d


def _ranks(row: np.ndarray, items: np.ndarray, descending: bool) -> np.ndarray:
    """1-based ranks of `items` (1-based ids) in the best-first order of `row`.

    Item p is preceded by every item that beats it (scores higher when
    `descending`, lower otherwise) and by every lower id that ties it: the
    order of a stable sort. Two methods give the same integers, and
    :func:`_ranks_by_counting` picks one from the number c of items and the
    row's length d:

    - counting, for few items: p with score v ranks 1 + #{j < p : s_j >= v}
      + #{j > p : s_j > v} (<= and < when ascending), two passes over the
      row per item, O(c d), with ties settled by the split at p;
    - sorting, for many: the items that beat p are a binary search of v in
      one sort of the row, O(d log d) whatever c is, and a tied item also
      counts the equal scores at lower ids, O(d) each.

    Timed on the decoded scores of trained networks, cut or tiled to each d
    (2-core x86 VM, numpy 2.4), the sort path took 19-26 us per row at
    d = 2,000 and 70-100 us at d = 9,862; counting took about 4 us per item
    at d = 2,000 and 6-7.5 us at 9,862. In two runs counting won through
    c = 4 at d = 300 and 1,000, c = 4-7 at 2,000, 6-8 at 5,000, 12-13 at
    9,862, 17-20 at 20,000 and 21-24 at 40,000; c <= sqrt(d) / 9 allows 1,
    3, 4, 7, 11, 15 and 22 there.
    """
    d = row.size
    values = row[items - 1]
    if _ranks_by_counting(items.size, d):
        before, after = ((np.greater_equal, np.greater) if descending
                         else (np.less_equal, np.less))
        return np.array([1 + np.count_nonzero(before(row[:p - 1], v))
                         + np.count_nonzero(after(row[p:], v))
                         for p, v in zip(items.tolist(), values.tolist())])
    ordered = np.sort(row)
    lo = np.searchsorted(ordered, values, "left")
    hi = np.searchsorted(ordered, values, "right")
    ranks = 1 + (d - hi if descending else lo)
    for i in np.flatnonzero(hi - lo > 1):
        ranks[i] += np.count_nonzero(row[:items[i] - 1] == values[i])
    return ranks


def evaluate_model(net: Network,
                   test_profiles: Sequence[tuple[SparseInstance, SparseInstance]],
                   hash_in: HashMatrix | None,
                   hash_out: HashMatrix | None,
                   decode_mode: str = "likelihood",
                   measure: str = "MAP",
                   top_n: int | None = None) -> EvaluationResult:
    """Ranked-recovery evaluation over held-out profiles (MAP or RR).

    `test_profiles` is a :class:`PackedPairs` split or a list of pairs, both
    taken by :func:`bloomemb.trainer.packed_split` with the matrices (None =
    identity, the no-embedding baseline). Before any encoding, an unknown
    decode mode or measure raises ValueError. Only the relevant items are
    ranked, each by counting: for decoded scores s, item p ranks
    1 + #{j : s_j beats s_p} + #{j < p : s_j = s_p}, where beating means a
    higher likelihood or a lower NLL. Ties thus go to the lower item id, as
    in :func:`bloomemb.codec.rank_batch`. A row with few relevant items
    counts its better scores in passes over the row, one pair per item; a
    row with more finds them by binary searches in one sort of its values
    (see :func:`_ranks`). No item permutation is built. Items ranked below
    `top_n` count as not retrieved.

    Profiles are encoded and run forward :data:`EVAL_SLICE` at a time; each
    slice's probabilities are then decoded and ranked :data:`DECODE_ROWS`
    rows at a time, so the largest arrays are one block's (rows, d) scores,
    not a slice's or the whole split's. The last slice and block hold what
    is left, unpadded. Decoding and ranking work row by row, so the block
    size does not change a score.
    """
    data, hash_in, hash_out = packed_split(net, test_profiles, hash_in, hash_out)
    depth = top_n if top_n is not None else data.d
    if not 1 <= depth <= data.d:
        raise ValueError(f"top_n {top_n} out of range [1, {data.d}]")
    if measure not in ("MAP", "RR"):
        raise ValueError(f"measure must be MAP or RR, got {measure!r}")
    # decoding no rows checks the mode before the forward pass
    _, order = decode_batch(np.empty((0, hash_out.m)), hash_out, decode_mode)
    descending = order is ScoreOrder.DESCENDING_LIKELIHOOD
    t0 = time.perf_counter()
    values = []
    for start in range(0, len(data), EVAL_SLICE):
        part = data[start:start + EVAL_SLICE]
        x = encode_rows(part.inputs, hash_in, np.empty((len(part), hash_in.m), net.dtype))
        probs = forward_batch(net, x)
        targets = part.targets.positions()
        for b in range(0, len(probs), DECODE_ROWS):
            scores, _ = decode_batch(probs[b:b + DECODE_ROWS], hash_out, decode_mode)
            # scores first: the end of a block must not use up a target
            for row, positions in zip(scores, targets):
                # RR is the average precision of the lowest relevant id alone
                items = positions if measure == "MAP" else positions[:1]
                ranks = np.sort(_ranks(row, items, descending))
                ranks = ranks[ranks <= depth]
                hits = np.arange(1, ranks.size + 1, dtype=np.float64)
                values.append(float((hits / ranks).sum() / items.size))
    wall = time.perf_counter() - t0
    return EvaluationResult(score=float(np.mean(values)),
                            measure=measure, n_evaluated=len(values),
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
    report = train(net, ds.train_profiles(), h_in, h_out, cfg.optimizer_spec(),
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
    m = max(k, int(round(m_ratio * d)))
    embedding = {} if variant == "baseline" else dict(
        m_in=m, m_out=m, k=k, hash_seed_in=base.hash_seed_in + 7919 * seed,
        hash_seed_out=base.hash_seed_out + 7919 * seed,
        cbe_seed=base.cbe_seed + 7919 * seed)
    return dataclasses.replace(base, baseline=variant == "baseline",
                               init_seed=base.init_seed + seed,
                               shuffle_seed=base.shuffle_seed + seed, **embedding)


def _run_cell(cfg: ExperimentConfig, ds: ProfileDataset) -> dict:
    try:
        outcome = _run(cfg, ds)
    except FloatingPointError as exc:
        nan = float("nan")
        return {"S_i": nan, "train_time": nan, "eval_time": nan, "error": str(exc)}
    return {"S_i": outcome.evaluation.score,
            "train_time": outcome.train_time_per_epoch,
            "eval_time": outcome.evaluation.wall_time, "error": ""}


def run_sweep(base: ExperimentConfig, m_ratios: Sequence[float],
              k_values: Sequence[int], seeds: Sequence[int],
              parallel: int = 1) -> list[dict]:
    """Grid of (k, m/d, seed) cells plus per-seed no-embedding baselines.

    The dataset is loaded once, and a cell's m is its ratio of the loaded
    dataset's d. Before any cell runs, `parallel` must be >= 1, the grid
    nonempty with every ratio in (0, 1] and no ratio, k or seed repeated,
    and every cell's config is built and checked against the dataset; a
    fault, or a split left empty, raises ConfigError. Every cell runs in the
    calling thread on the one loaded dataset, whatever `parallel` is, so a
    SIGINT stops the sweep at once.

    Returns rows sorted by (k, m/d, seed); baseline rows carry the nominal
    point (k=1, m/d=1.0) and ratio 1 by construction. A cell whose training
    diverges gives a NaN row whose `error` names the reason, else empty.
    `train_time_ratio` and `eval_time_ratio` each divide one timing of the
    cell by one of its baseline, so on cells of a few ms they are noise: a
    Bloom cell of a d = 500 grid has read 1.44, slower than its baseline.
    """
    m_ratios = [float(r) for r in m_ratios]
    k_values = [int(k) for k in k_values]
    seeds = [int(s) for s in seeds]
    if not m_ratios or not k_values or not seeds:
        raise ConfigError("sweep grid must be nonempty")
    if any(not 0 < r <= 1.0 for r in m_ratios):
        raise ConfigError("m ratios must lie in (0, 1]")
    for name, values in (("m ratios", m_ratios), ("k values", k_values),
                         ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} must be distinct, got {values}")
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    ds = load_dataset(base)

    variant = "cbe" if base.use_cbe else "be"
    cells = [("baseline", 1, 1.0, seed) for seed in seeds]
    cells += [(variant, k, ratio, seed) for k in sorted(k_values)
              for ratio in sorted(m_ratios) for seed in seeds]
    configs = [_cell_config(base, ds.d, ratio, k, seed, v)
               for v, k, ratio, seed in cells]
    for cfg in configs:
        _check_embedding_fits(cfg, ds.d)
    rows = [{"measure": base.measure, "variant": v, "k": k, "m_ratio": ratio,
             "seed": seed, **_run_cell(cfg, ds)}
            for (v, k, ratio, seed), cfg in zip(cells, configs)]

    baselines = {row["seed"]: row for row in rows if row["variant"] == "baseline"}
    for row in rows:
        ref = baselines[row["seed"]]
        row["S_0"] = ref["S_i"] or float("nan")  # a 0 or NaN S_0 gives NaN ratios
        row["score_ratio"] = row["S_i"] / row["S_0"]
        row["train_time_ratio"] = (row["train_time"] / ref["train_time"]
                                   if ref["train_time"] else float("nan"))
        row["eval_time_ratio"] = (row["eval_time"] / ref["eval_time"]
                                  if ref["eval_time"] else float("nan"))
    rows.sort(key=lambda r: (r["k"], r["m_ratio"], r["seed"],
                             r["variant"] != "baseline"))
    return rows


def sweep_rows_tsv(rows: Sequence[dict]) -> str:
    lines = ["\t".join(SWEEP_COLUMNS)]
    for row in rows:
        cells = (row.get(col) for col in SWEEP_COLUMNS)
        lines.append("\t".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                               for v in cells))
    return "\n".join(lines) + "\n"
