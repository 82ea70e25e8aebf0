"""Command-line interface wiring the modules into reproducible pipelines.

Subcommands: build-hash, encode, decode, cbe, train, evaluate, sweep.
Every run writes its outputs atomically, logs its fully resolved
configuration to ``<out>.config`` (re-running from that file reproduces
the outputs bit-exactly, wall-time fields aside), and exits with code 2
on configuration faults and 1 on data faults.
The experiment commands leave config faults to :mod:`bloomemb.experiment`:
building an ``ExperimentConfig`` rejects those that need no data, and
``load_dataset`` and ``build_matrices`` those that do, before any training.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import cbe as cbe_mod
from . import codec, experiment, hashing, trainer
from .data import DataError
from .experiment import ConfigError


def atomic_write(path, payload) -> None:
    """Write text or bytes to `path` via a temp file and rename."""
    path = Path(path)
    mode = "wb" if isinstance(payload, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name)
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _log_config(out_path: str, text: str) -> None:
    atomic_write(str(out_path) + ".config", text)
    print(f"config logged to {out_path}.config", file=sys.stderr)


def _flags_config_text(args, keys) -> str:
    lines = ["# bloomemb resolved flags"]
    for key in keys:
        lines.append(f"{key.replace('_', '-')}={getattr(args, key)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------


def cmd_build_hash(args) -> int:
    try:
        matrix = hashing.build_hash_matrix(args.d, args.m, args.k, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.format == "binary":
        payload = hashing.matrix_to_binary(matrix)
    else:
        payload = hashing.matrix_to_text(matrix)
    atomic_write(args.out, payload)
    _log_config(args.out, _flags_config_text(args, ("d", "m", "k", "seed", "format")))
    return 0


def _load_matrix(path: str) -> hashing.HashMatrix:
    try:
        return hashing.load_hash_matrix(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load hash matrix {path}: {exc}") from None


def cmd_encode(args) -> int:
    matrix = _load_matrix(args.hash)
    try:
        instances = codec.read_instances(args.instances, matrix.d)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read instances {args.instances}: {exc}") from None
    bits = codec.encode_batch(instances, matrix)
    atomic_write(args.out, codec.write_bit_vectors(bits))
    _log_config(args.out, _flags_config_text(args, ("hash", "instances")))
    return 0


def _read_probability_lines(path: str, m: int) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DataError(str(exc)) from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        vals = line.split()
        if len(vals) != m:
            raise DataError(f"{path}:{lineno}: expected {m} probabilities, "
                            f"got {len(vals)}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric probability") from None
    if not rows:
        raise DataError(f"{path}: no probability vectors")
    return np.asarray(rows, dtype=np.float64)


def cmd_decode(args) -> int:
    matrix = _load_matrix(args.hash)
    if (args.probs is None) == (args.embeddings is None):
        raise ConfigError("provide exactly one of --probs or --embeddings")
    if args.probs is not None:
        probs = _read_probability_lines(args.probs, matrix.m)
    else:
        try:
            bits = codec.read_bit_vectors(args.embeddings)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc)) from None
        if bits.shape[1] != matrix.m:
            raise DataError(f"embedding width {bits.shape[1]} != matrix m {matrix.m}")
        probs = bits.astype(np.float64)
    if args.decode == "likelihood":
        scores = codec.decode_likelihood_batch(probs, matrix)
        ordering = codec.ScoreOrder.DESCENDING_LIKELIHOOD
    else:
        scores = codec.decode_nll_batch(probs, matrix)
        ordering = codec.ScoreOrder.ASCENDING_NLL
    top_n = args.top_n if args.top_n is not None else matrix.d
    if not 1 <= top_n <= matrix.d:
        raise ConfigError(f"--top-n must lie in [1, {matrix.d}]")
    ranked = codec.rank_batch(scores, ordering, top_n)
    atomic_write(args.out, codec.write_scores_tsv(ranked, scores))
    _log_config(args.out, _flags_config_text(
        args, ("hash", "probs", "embeddings", "decode", "top_n")))
    return 0


def cmd_cbe(args) -> int:
    matrix = _load_matrix(args.hash)
    try:
        instances = codec.read_instances(args.instances, matrix.d)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read instances {args.instances}: {exc}") from None
    if not instances:
        raise DataError("instance file is empty")
    table = cbe_mod.count_cooccurrences(instances)
    pairs = cbe_mod.threshold_and_order(table)
    rebuilt = cbe_mod.rebuild_hash_matrix(matrix, pairs, args.seed)
    if args.format == "binary":
        payload = hashing.matrix_to_binary(rebuilt)
    else:
        payload = hashing.matrix_to_text(rebuilt)
    atomic_write(args.out, payload)
    stats = cbe_mod.cooccurrence_stats(table, len(instances))
    atomic_write(args.stats_out, cbe_mod.stats_report_tsv(stats))
    _log_config(args.out, _flags_config_text(
        args, ("hash", "instances", "seed", "format")))
    return 0


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

_SEED_FIELDS = ("data_seed", "hash_seed_in", "hash_seed_out", "cbe_seed",
                "init_seed", "shuffle_seed")


def _resolve_config(args) -> experiment.ExperimentConfig:
    """Merge a config file (if given) with command-line flag overrides."""
    if getattr(args, "config", None):
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        cfg = experiment.config_from_text(text)
    else:
        cfg = experiment.ExperimentConfig()
    overrides = {
        "d": "d", "n": "n", "n_clusters": "n_clusters", "noise": "noise",
        "k": "k", "epochs": "epochs", "optimizer": "optimizer",
        "lr": "learning_rate", "batch_size": "batch_size",
        "decode": "decode_mode", "top_n": "top_n", "measure": "measure",
        "test_size": "test_size",
    }
    changes = {field: getattr(args, flag) for flag, field in overrides.items()
               if getattr(args, flag, None) is not None}
    if getattr(args, "data", None):
        changes["data_path"] = args.data
    if getattr(args, "synthetic", False):
        changes["data_path"] = None
    if getattr(args, "m", None) is not None:
        changes["m_in"] = changes["m_out"] = args.m
    if getattr(args, "hidden", None) is not None:
        changes["hidden"] = tuple(int(v) for v in args.hidden.split(","))
    if getattr(args, "cbe", False):
        changes["use_cbe"] = True
    if getattr(args, "baseline", False):
        changes["baseline"] = True
    if getattr(args, "seed", None) is not None:
        for offset, field in enumerate(_SEED_FIELDS):
            changes[field] = args.seed + offset
    return dataclasses.replace(cfg, **changes)


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ds = experiment.load_dataset(cfg)
    h_in, h_out = experiment.build_matrices(cfg, ds)
    net, report = experiment.fit(cfg, ds, h_in, h_out)
    buf = io.BytesIO()
    trainer.save_network(net, buf)
    atomic_write(args.out, buf.getvalue())
    if not cfg.baseline:
        atomic_write(args.out + ".hash-in", hashing.matrix_to_text(h_in))
        atomic_write(args.out + ".hash-out", hashing.matrix_to_text(h_out))
    lines = ["epoch\tloss\tseconds"]
    for i, (loss, secs) in enumerate(zip(report.epoch_losses, report.epoch_times)):
        lines.append(f"{i + 1}\t{loss:.10g}\t{secs:.6g}")
    atomic_write(args.out + ".report.tsv", "\n".join(lines) + "\n")
    _log_config(args.out, experiment.config_to_text(cfg))
    print(f"trained {cfg.epochs} epochs, final loss {report.final_loss:.6g}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    try:
        net = trainer.load_network(args.model)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load model {args.model}: {exc}") from None
    h_in = h_out = None
    hash_in_path = args.hash_in or (args.model + ".hash-in")
    hash_out_path = args.hash_out or (args.model + ".hash-out")
    if not cfg.baseline:
        if Path(hash_in_path).exists():
            h_in = _load_matrix(hash_in_path)
            h_out = _load_matrix(hash_out_path)
        else:
            raise ConfigError(
                "no hash matrices found; pass --hash-in/--hash-out or --baseline")
    ds = experiment.load_dataset(cfg)
    result = experiment.evaluate_model(net, ds.test_profiles(), h_in, h_out,
                                       decode_mode=cfg.decode_mode,
                                       measure=cfg.measure, top_n=cfg.top_n)
    line = (f"measure={result.measure.value} score={result.score:.6g} "
            f"n={result.n_evaluated} seconds={result.wall_time:.6g}")
    print(line)
    if args.out:
        atomic_write(args.out,
                     "measure\tscore\tn_evaluated\tseconds\n"
                     f"{result.measure.value}\t{result.score:.10g}"
                     f"\t{result.n_evaluated}\t{result.wall_time:.6g}\n")
        _log_config(args.out, experiment.config_to_text(cfg))
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    try:
        m_ratios = [float(v) for v in args.m_ratios.split(",")]
        k_values = [int(v) for v in args.k_values.split(",")]
        seeds = [int(v) for v in args.seeds.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid: {exc}") from None
    rows = experiment.run_sweep(cfg, m_ratios, k_values, seeds,
                                parallel=args.parallel)
    atomic_write(args.out, experiment.sweep_rows_tsv(rows))
    _log_config(args.out, experiment.config_to_text(cfg))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--data", help="profile or triple file")
    p.add_argument("--synthetic", action="store_true",
                   help="use the synthetic cluster dataset")
    p.add_argument("--d", type=int, help="item dimensionality (synthetic)")
    p.add_argument("--n", type=int, help="instance count (synthetic)")
    p.add_argument("--n-clusters", dest="n_clusters", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--m", type=int, help="embedding dimensionality (both sides)")
    p.add_argument("--k", type=int, help="projections per item")
    p.add_argument("--seed", type=int, help="master seed for all stages")
    p.add_argument("--epochs", type=int)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", help="comma-separated hidden layer sizes")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--test-size", dest="test_size", type=float)
    p.add_argument("--cbe", action="store_true",
                   help="rebuild hash matrices from co-occurrences")
    p.add_argument("--baseline", action="store_true",
                   help="no-embedding baseline run")
    p.add_argument("--decode", choices=("likelihood", "nll"))
    p.add_argument("--top-n", dest="top_n", type=int)
    p.add_argument("--measure", choices=("MAP", "RR"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bloomemb",
        description="Bloom embeddings: compress sparse binary instances, "
                    "recover ranked items, and run desk-scale experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-hash", help="construct and save a hash matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_hash)

    p = sub.add_parser("encode", help="embed an instance file")
    p.add_argument("--hash", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="rank items from probabilities or bits")
    p.add_argument("--hash", required=True)
    p.add_argument("--probs", help="file with one probability vector per line")
    p.add_argument("--embeddings", help="file with one bit vector per line")
    p.add_argument("--decode", choices=("likelihood", "nll"), default="likelihood")
    p.add_argument("--top-n", dest="top_n", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("cbe", help="rebuild a hash matrix from co-occurrences")
    p.add_argument("--hash", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", dest="stats_out", required=True)
    p.set_defaults(func=cmd_cbe)

    p = sub.add_parser("train", help="train the feed-forward model")
    _add_experiment_flags(p)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model")
    _add_experiment_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--hash-in", dest="hash_in")
    p.add_argument("--hash-out", dest="hash_out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a (k, m/d, seed) grid with baselines")
    _add_experiment_flags(p)
    p.add_argument("--m-ratios", dest="m_ratios", required=True,
                   help="comma-separated m/d values")
    p.add_argument("--k-values", dest="k_values", required=True,
                   help="comma-separated k values")
    p.add_argument("--seeds", default="0",
                   help="comma-separated seeds, one cell per seed")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
