"""Command-line interface wiring the modules into reproducible pipelines.

Subcommands: build-hash, encode, decode, cbe, train, evaluate, sweep. Each
parses its flags, calls the library, whose rules it follows, and writes its
outputs atomically; it exits with code 2 on configuration faults and 1 on
data faults. Each logs its configuration to ``<out>.config``: build-hash,
encode, decode and cbe a ``key=value`` line per flag set, except ``--out``,
that replays as ``--key value`` with a new ``--out``; train, evaluate and
sweep the resolved experiment config, that replays as ``--config``. A replay
matches bit for bit, wall times aside. An experiment flag sets the
``ExperimentConfig`` field named by its dest, parsed by the config file's
rule. ``train`` always writes the hash matrices next to the checkpoint, as
``<out>.hash-in`` and ``<out>.hash-out`` (the identity for the baseline),
and ``evaluate`` reads them from next to ``--model``. One loader reads every
artifact file and hands it to its module's parser; a fault in either step is
the data fault ``cannot load <what> <path>: <reason>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import tempfile
import typing
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


def _flags_config_text(args) -> str:
    lines = ["# bloomemb resolved flags"]
    for key, value in vars(args).items():
        if key not in ("command", "func", "out") and value is not None:
            lines.append(f"{key.replace('_', '-')}={value}")
    return "\n".join(lines) + "\n"


def _load(what: str, path: str, parse, *args):
    """`parse(contents, *args)` of the artifact file at `path`, given its bytes
    for the formats that may be binary and its text for the others."""
    try:
        data = Path(path).read_bytes()
        if parse not in (hashing.matrix_from_bytes, trainer.network_from_bytes):
            data = data.decode()
        return parse(data, *args)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load {what} {path}: {exc}") from None


def _write_matrix(path: str, matrix: hashing.HashMatrix, fmt: str) -> None:
    atomic_write(path, hashing.matrix_to_binary(matrix) if fmt == "binary"
                 else hashing.matrix_to_text(matrix))


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------


def cmd_build_hash(args) -> int:
    try:
        matrix = hashing.build_hash_matrix(args.d, args.m, args.k, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_matrix(args.out, matrix, args.format)
    _log_config(args.out, _flags_config_text(args))
    return 0


def cmd_encode(args) -> int:
    matrix = _load("hash matrix", args.hash, hashing.matrix_from_bytes)
    instances = _load("instances", args.instances, codec.read_instances, matrix.d)
    bits = codec.encode_batch(instances, matrix)
    atomic_write(args.out, codec.write_bit_vectors(bits))
    _log_config(args.out, _flags_config_text(args))
    return 0


def cmd_decode(args) -> int:
    matrix = _load("hash matrix", args.hash, hashing.matrix_from_bytes)
    if (args.probs is None) == (args.embeddings is None):
        raise ConfigError("provide exactly one of --probs or --embeddings")
    if args.probs is not None:
        probs = _load("probabilities", args.probs, codec.read_probabilities,
                      matrix.m)
    else:
        bits = _load("embeddings", args.embeddings, codec.read_bit_vectors)
        if bits.shape[1] != matrix.m:
            raise DataError(f"embedding width {bits.shape[1]} != matrix m {matrix.m}")
        probs = bits.astype(np.float64)
    try:  # the decode mode and top_n are checked by the codec
        scores, ordering = codec.decode_batch(probs, matrix, args.decode)
        ranked = codec.rank_batch(
            scores, ordering, matrix.d if args.top_n is None else args.top_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    atomic_write(args.out, codec.write_scores_tsv(ranked, scores))
    _log_config(args.out, _flags_config_text(args))
    return 0


def cmd_cbe(args) -> int:
    matrix = _load("hash matrix", args.hash, hashing.matrix_from_bytes)
    instances = _load("instances", args.instances, codec.read_instances, matrix.d)
    if not instances:
        raise DataError("instance file is empty")
    table = cbe_mod.count_cooccurrences(instances)
    pairs = cbe_mod.threshold_and_order(table)
    _write_matrix(args.out, cbe_mod.rebuild_hash_matrix(matrix, pairs, args.seed),
                  args.format)
    stats = cbe_mod.cooccurrence_stats(table, len(instances))
    atomic_write(args.stats_out, cbe_mod.stats_report_tsv(stats))
    _log_config(args.out, _flags_config_text(args))
    return 0


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

# experiment flag -> the ExperimentConfig field it sets (its argparse dest)
_FIELD_FLAGS = {
    "--data": "data_path", "--d": "d", "--n": "n", "--n-clusters": "n_clusters",
    "--noise": "noise", "--k": "k", "--epochs": "epochs",
    "--optimizer": "optimizer", "--lr": "learning_rate", "--hidden": "hidden",
    "--batch-size": "batch_size", "--test-size": "test_size",
    "--decode": "decode_mode", "--top-n": "top_n", "--measure": "measure",
}
_SEED_FIELDS = ("data_seed", "hash_seed_in", "hash_seed_out", "cbe_seed",
                "init_seed", "shuffle_seed")


def _parse_flag(flag: str, text: str, annotation):
    """`text` by the config file's rule for `annotation`; ConfigError if bad."""
    try:
        return experiment._parse_value(text, annotation)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _resolve_config(args) -> experiment.ExperimentConfig:
    """Merge a config file (if given) with command-line flag overrides."""
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        cfg = experiment.config_from_text(text)
    else:
        cfg = experiment.ExperimentConfig()
    hints = typing.get_type_hints(experiment.ExperimentConfig)
    changes = {field: _parse_flag(flag, getattr(args, field), hints[field])
               for flag, field in _FIELD_FLAGS.items()
               if getattr(args, field) is not None}
    if args.synthetic:
        changes["data_path"] = None
    if args.m is not None:
        changes["m_in"] = changes["m_out"] = _parse_flag("--m", args.m, int)
    if args.cbe:
        changes["use_cbe"] = True
    if args.baseline:
        changes["baseline"] = True
    if args.seed is not None:
        seed = _parse_flag("--seed", args.seed, int)
        changes.update({field: seed + i for i, field in enumerate(_SEED_FIELDS)})
    return dataclasses.replace(cfg, **changes)


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    ds = experiment.load_dataset(cfg)
    h_in, h_out = experiment.build_matrices(cfg, ds)
    net, report = experiment.fit(cfg, ds, h_in, h_out)
    atomic_write(args.out, trainer.network_to_bytes(net))
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
    net = _load("model", args.model, trainer.network_from_bytes)
    h_in = _load("hash matrix", args.model + ".hash-in", hashing.matrix_from_bytes)
    h_out = _load("hash matrix", args.model + ".hash-out", hashing.matrix_from_bytes)
    ds = experiment.load_dataset(cfg)
    result = experiment.evaluate_model(net, ds.test_profiles(), h_in, h_out,
                                       decode_mode=cfg.decode_mode,
                                       measure=cfg.measure, top_n=cfg.top_n)
    print(f"measure={result.measure} score={result.score:.6g} "
          f"n={result.n_evaluated} seconds={result.wall_time:.6g}")
    if args.out:
        atomic_write(args.out,
                     "measure\tscore\tn_evaluated\tseconds\n"
                     f"{result.measure}\t{result.score:.10g}"
                     f"\t{result.n_evaluated}\t{result.wall_time:.6g}\n")
        _log_config(args.out, experiment.config_to_text(cfg))
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    rows = experiment.run_sweep(
        cfg, _parse_flag("--m-ratios", args.m_ratios, tuple[float, ...]),
        _parse_flag("--k-values", args.k_values, tuple[int, ...]),
        _parse_flag("--seeds", args.seeds, tuple[int, ...]), parallel=args.parallel)
    atomic_write(args.out, experiment.sweep_rows_tsv(rows))
    _log_config(args.out, experiment.config_to_text(cfg))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    for flag, field in _FIELD_FLAGS.items():
        p.add_argument(flag, dest=field, help=f"sets {field} by the config file's rule")
    p.add_argument("--synthetic", action="store_true",
                   help="use the synthetic cluster dataset")
    p.add_argument("--m", help="sets m_in and m_out")
    p.add_argument("--seed", help=f"sets {', '.join(_SEED_FIELDS)}: SEED, SEED+1, ...")
    p.add_argument("--cbe", action="store_true",
                   help="rebuild hash matrices from co-occurrences")
    p.add_argument("--baseline", action="store_true",
                   help="no-embedding baseline run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bloomemb", exit_on_error=False,
        description="Bloom embeddings: compress sparse binary instances, "
                    "recover ranked items, and run desk-scale experiments.")
    # a bad flag value reaches main as an ArgumentError, not as SystemExit
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, exit_on_error=False)

    p = add_parser("build-hash", help="construct and save a hash matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_hash)

    p = add_parser("encode", help="embed an instance file")
    p.add_argument("--hash", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = add_parser("decode", help="rank items from probabilities or bits")
    p.add_argument("--hash", required=True)
    p.add_argument("--probs", help="file with one probability vector per line")
    p.add_argument("--embeddings", help="file with one bit vector per line")
    p.add_argument("--decode", default="likelihood")
    p.add_argument("--top-n", dest="top_n", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = add_parser("cbe", help="rebuild a hash matrix from co-occurrences")
    p.add_argument("--hash", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", dest="stats_out", required=True)
    p.set_defaults(func=cmd_cbe)

    p = add_parser("train", help="train the feed-forward model")
    _add_experiment_flags(p)
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.set_defaults(func=cmd_train)

    p = add_parser("evaluate", help="evaluate a trained model")
    _add_experiment_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("sweep", help="run a (k, m/d, seed) grid with baselines")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, argparse.ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
