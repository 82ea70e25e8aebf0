"""Command-line interface wiring the modules into reproducible pipelines.

Subcommands: build-hash, encode, decode, cbe, train, evaluate, sweep. Each
parses its flags and calls the library, whose rules it follows. It returns
its resolved config, if any, the text or bytes of each file it outputs, keyed
by the suffix the file adds to ``--out``, and a summary line, if any; ``main``
alone writes those files and the ``.config``, each to a temp file renamed
into place only once all are written, then prints the summary, so a command
that fails writes nothing. A fault exits with code 2 if it is in the
configuration, and 1 if it is in the data or a number is not finite
(``numeric error: <reason>``). This module alone owns the ``.config``
grammar, which flags share: a file's line ``key=value`` is the flag
``--key=value``, an underscore read as a dash, and a value reads by its type
(``none``, ``true``, commas between tuple items); a bad one is the config
fault ``argument --flag: <reason>``. ``--config FILE`` puts the file's flags
ahead of the command line's, which override them. train, evaluate and sweep
have a flag per ``ExperimentConfig`` field, named after it, plus ``--m`` and
``--seed``, which set several. Each run is logged to ``<out>.config``: the
resolved config's fields, if any, then its other flags but ``--out``, keys
written with underscores (dashes read too), so that ``--config <out>.config
--out <new>`` replays it bit for bit, wall times aside. Every file a run
writes is named after ``--out``: ``cbe`` writes its report to
``<out>.stats.tsv``, and ``train`` the hash matrices to ``<out>.hash-in`` and
``<out>.hash-out`` (the identity for the baseline), which ``evaluate`` reads
next to ``--model``. One loader reads every artifact file and hands its bytes
to the format's parser; a fault in either step is the data fault ``cannot
load <what> <path>: <reason>``.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import secrets
import sys
import types
import typing
from pathlib import Path

from . import cbe as cbe_mod
from . import codec, experiment, hashing, trainer
from .data import DataError
from .experiment import ConfigError


def write_atomically(files: dict[str, str | bytes]) -> None:
    """Write each text or bytes payload to a temp file beside its path, then,
    once all are written and no path is a directory, rename them into place.
    A fault is an OSError that names the path, and leaves no temp file. The
    files get the mode that open() gives a new file under the umask."""
    temps = []
    try:
        for path, payload in files.items():
            tmp = f"{path}.{secrets.token_hex(4)}.tmp"
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "wb" if isinstance(payload, bytes) else "w") as fh:
                fh.write(payload)
        for path in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in zip(files, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _out_path(text: str) -> str:
    """The argparse type of --out: any path but the empty one."""
    if not text:
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    return text


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_value(annotation, text: str):
    """`text` read as a value of `annotation`, the argparse type of a flag;
    ArgumentTypeError if it is not one."""
    text = text.strip()
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):  # every one is `X | None`
        inner, _ = typing.get_args(annotation)
        return None if text.lower() == "none" else _parse_value(inner, text)
    if annotation is bool:
        if text.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")
        return text.lower() in ("true", "1", "yes")
    if origin is tuple:
        return tuple(_parse_value(typing.get_args(annotation)[0], v)
                     for v in text.split(",")) if text else ()
    try:
        return annotation(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _format_value(value) -> str:
    """`value` as `_parse_value` reads it back."""
    if value is None or isinstance(value, bool):
        return str(value).lower()
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _config_text(args, cfg: experiment.ExperimentConfig | None) -> str:
    """The ``<out>.config`` of a run: the resolved experiment config's
    fields, if any, then every other flag set, --out and --config aside."""
    values = {} if cfg is None else {field: getattr(cfg, field) for field in _FIELDS}
    resolved = () if cfg is None else (*_FIELDS, "m", "seed")
    values.update((key, value) for key, value in vars(args).items()
                  if value is not None
                  and key not in (*resolved, "command", "func", "out", "config"))
    return "# bloomemb config\n" + "".join(
        f"{key}={_format_value(value)}\n" for key, value in values.items())


def _load(what: str, path: str, parse, *args):
    """`parse(data, *args)` of the bytes of the artifact file at `path`."""
    try:
        return parse(Path(path).read_bytes(), *args)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load {what} {path}: {exc}") from None


# the writer of each --format of build-hash and cbe
_MATRIX_FORMATS = {"text": codec.matrix_to_text, "binary": codec.matrix_to_binary}


# ---------------------------------------------------------------------------
# simple commands
# ---------------------------------------------------------------------------


def cmd_build_hash(args):
    try:
        matrix = hashing.build_hash_matrix(args.d, args.m, args.k, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return None, {"": _MATRIX_FORMATS[args.format](matrix)}, None


def cmd_encode(args):
    matrix = _load("hash matrix", args.hash, codec.matrix_from_bytes)
    instances = _load("instances", args.instances, codec.read_instances, matrix.d)
    bits = codec.encode_batch(instances, matrix)
    return None, {"": codec.write_bit_vectors(bits)}, None


def cmd_decode(args):
    if (args.probs is None) == (args.embeddings is None):
        raise ConfigError("provide exactly one of --probs or --embeddings")
    matrix = _load("hash matrix", args.hash, codec.matrix_from_bytes)
    what, path, parse = (
        ("probabilities", args.probs, codec.read_probabilities) if args.embeddings is None
        else ("embeddings", args.embeddings, codec.read_bit_vectors))
    probs = _load(what, path, parse, matrix.m)
    try:  # the decode mode and top_n are checked by the codec
        scores, ordering = codec.decode_batch(probs, matrix, args.decode)
        ranked = codec.rank_batch(
            scores, ordering, matrix.d if args.top_n is None else args.top_n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return None, {"": codec.write_scores_tsv(ranked, scores)}, None


def cmd_cbe(args):
    matrix = _load("hash matrix", args.hash, codec.matrix_from_bytes)
    instances = _load("instances", args.instances, codec.read_instances, matrix.d)
    if not instances:
        raise DataError("instance file is empty")
    table = cbe_mod.count_cooccurrences(instances)
    try:
        stats = cbe_mod.cooccurrence_stats(table, len(instances))
    except ValueError as exc:
        raise DataError(f"co-occurrence {exc}") from None
    pairs = cbe_mod.threshold_and_order(table)
    rebuilt = cbe_mod.rebuild_hash_matrix(matrix, pairs, args.seed)
    return None, {"": _MATRIX_FORMATS[args.format](rebuilt),
                  ".stats.tsv": cbe_mod.stats_report_tsv(stats)}, None


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

# every ExperimentConfig field has the flag of its name; a few keep a short alias
_FIELDS = typing.get_type_hints(experiment.ExperimentConfig)
_ALIASES = {"data_path": "--data", "learning_rate": "--lr",
            "decode_mode": "--decode", "use_cbe": "--cbe"}
_SEED_FIELDS = ("data_seed", "hash_seed_in", "hash_seed_out", "cbe_seed",
                "init_seed", "shuffle_seed")


def _resolve_config(args) -> experiment.ExperimentConfig:
    """The config the field flags set, then --m and --seed over them."""
    changes = {field: getattr(args, field) for field in _FIELDS
               if getattr(args, field) is not None}
    if args.m is not None:
        changes["m_in"] = changes["m_out"] = args.m
    if args.seed is not None:
        changes.update({field: args.seed + i for i, field in enumerate(_SEED_FIELDS)})
    return experiment.ExperimentConfig(**changes)


def cmd_train(args):
    cfg = _resolve_config(args)
    ds = experiment.load_dataset(cfg)
    h_in, h_out = experiment.build_matrices(cfg, ds)
    net, report = experiment.fit(cfg, ds, h_in, h_out)
    epochs = enumerate(zip(report.epoch_losses, report.epoch_times), 1)
    report_tsv = "epoch\tloss\tseconds\n" + "".join(
        f"{i}\t{loss:.10g}\t{secs:.6g}\n" for i, (loss, secs) in epochs)
    return cfg, {"": trainer.network_to_bytes(net),
                 ".hash-in": codec.matrix_to_text(h_in),
                 ".hash-out": codec.matrix_to_text(h_out), ".report.tsv": report_tsv}, \
        f"trained {cfg.epochs} epochs, final loss {report.final_loss:.6g}"


def cmd_evaluate(args):
    cfg = _resolve_config(args)
    net = _load("model", args.model, trainer.network_from_bytes)
    h_in = _load("hash matrix", args.model + ".hash-in", codec.matrix_from_bytes)
    h_out = _load("hash matrix", args.model + ".hash-out", codec.matrix_from_bytes)
    ds = experiment.load_dataset(cfg)
    result = experiment.evaluate_model(net, ds.test_profiles(), h_in, h_out,
                                       decode_mode=cfg.decode_mode,
                                       measure=cfg.measure, top_n=cfg.top_n)
    return cfg, {"": "measure\tscore\tn_evaluated\tseconds\n"
                     f"{result.measure}\t{result.score:.10g}"
                     f"\t{result.n_evaluated}\t{result.wall_time:.6g}\n"}, \
        (f"measure={result.measure} score={result.score:.6g} "
         f"n={result.n_evaluated} seconds={result.wall_time:.6g}")


def cmd_sweep(args):
    cfg = _resolve_config(args)
    rows = experiment.run_sweep(cfg, args.m_ratios, args.k_values, args.seeds,
                                parallel=args.parallel)
    return cfg, {"": experiment.sweep_rows_tsv(rows)}, \
        f"wrote {len(rows)} rows to {args.out}"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group(
        "experiment fields", "each flag sets the ExperimentConfig field of its "
        "name, read as in a .config file")
    for field, hint in _FIELDS.items():
        flags = (_flag(field), _ALIASES[field]) if field in _ALIASES else (_flag(field),)
        group.add_argument(*flags, type=functools.partial(_parse_value, hint),
                           **({"nargs": "?", "const": True} if hint is bool else {}))
    p.add_argument("--m", type=int, help="sets m_in and m_out")
    p.add_argument("--seed", type=int,
                   help=f"sets {', '.join(_SEED_FIELDS)}: SEED, SEED+1, ...")


class _Parser(argparse.ArgumentParser):
    """A parser whose every fault, a missing argument too, is a ConfigError."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bloomemb", description=(
        "Bloom embeddings: compress sparse binary instances, recover ranked "
        "items, and run desk-scale experiments."))
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="replay a .config file: each key=value "
                       "line is the flag --key=value, before the command line's")
        p.add_argument("--out", type=_out_path, required=name != "evaluate",
                       help="the output file; any other file adds a suffix to it")
        p.set_defaults(func=func)
        return p

    p = add_parser("build-hash", cmd_build_hash, "construct and save a hash matrix")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=_MATRIX_FORMATS, default="text")

    p = add_parser("encode", cmd_encode, "embed an instance file")
    p.add_argument("--hash", required=True)
    p.add_argument("--instances", required=True)

    p = add_parser("decode", cmd_decode, "rank items from probabilities or bits")
    p.add_argument("--hash", required=True)
    p.add_argument("--probs", help="file with one probability vector per line")
    p.add_argument("--embeddings", help="file with one bit vector per line")
    p.add_argument("--decode", default="likelihood")
    p.add_argument("--top-n", type=int)

    p = add_parser("cbe", cmd_cbe, "rebuild a hash matrix from co-occurrences")
    p.add_argument("--hash", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=_MATRIX_FORMATS, default="text")

    p = add_parser("train", cmd_train, "train the feed-forward model")
    _add_experiment_flags(p)

    p = add_parser("evaluate", cmd_evaluate, "evaluate a trained model")
    _add_experiment_flags(p)
    p.add_argument("--model", required=True)

    p = add_parser("sweep", cmd_sweep, "run a (k, m/d, seed) grid with baselines")
    _add_experiment_flags(p)
    p.add_argument("--m-ratios", required=True, help="comma-separated m/d values",
                   type=functools.partial(_parse_value, tuple[float, ...]))
    p.add_argument("--k-values", required=True, help="comma-separated k values",
                   type=functools.partial(_parse_value, tuple[int, ...]))
    p.add_argument("--seeds", default=(0,), help="comma-separated seeds, one cell "
                   "per seed", type=functools.partial(_parse_value, tuple[int, ...]))
    p.add_argument("--parallel", type=int, default=1)

    return parser


def _with_config(argv: list[str] | None) -> list[str] | None:
    """`argv` with ``--config FILE`` replaced by the flag ``--key=value`` for
    each ``key=value`` line of FILE, put right after the subcommand, so that
    the command line's own flags override them. A line whose first non-blank
    character is ``#`` is a comment; a ``#`` anywhere else is part of the
    value, as in a path. A ``config`` line is a fault."""
    pre = _Parser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    try:  # read as every artifact is, so a non-UTF-8 byte names its line
        lines = codec._numbered(Path(known.config).read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {known.config}: {exc}") from None
    flags = []
    for lineno, raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            flag = _flag(key.strip())
            if flag == "--config":
                raise ConfigError(f"line {lineno}: config files do not nest, got {raw!r}")
            flags.append(f"{flag}={value.strip()}")
    return [*rest[:1], *flags, *rest[1:]]


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(_with_config(argv))
        cfg, outputs, summary = args.func(args)
        if args.out is not None:  # every command but evaluate requires it
            outputs[".config"] = _config_text(args, cfg)
            write_atomically({args.out + suffix: payload
                              for suffix, payload in outputs.items()})
            print(f"config logged to {args.out}.config", file=sys.stderr)
        if summary is not None:
            print(summary)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
