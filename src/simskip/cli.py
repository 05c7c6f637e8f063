"""Command-line pipeline: synthesize, refine, evaluate, ablate, theory-check.

Subcommands
    gen-synth   write a labeled synthetic mixture as an EMBF file
    refine      train a refiner on an EMBF file; write refined EMBF,
                checkpoint, and a JSON training report
    ablate      `refine` without the skip path; the command, never the config
                file, sets that path (reports tagged "simskip-minus")
    eval        compare an original embedding against refined ones: kNN
                score and linear probe, with the mlp3 probe alongside;
                each entry is `evaluate`'s record plus its path and the
                mlp3 result
    theory      triplet margins, loss-bound terms, JSON bound report; the
                bound's R is the input's largest row norm, M the triplet count
    augment     preview augmented positive pairs for the first rows
    inspect     print a JSON summary of an EMBF or SSKP file

Exit codes: 0 success, 1 validation/format/usage errors and sizes NumPy
cannot allocate, 2 internal numeric failure, a floating-point overflow,
invalid operation or division by zero in NumPy included. Every run is
deterministic for fixed seeds: rerunning a command overwrites its outputs
with identical bytes, and input files are never modified. Before anything
is read or written, every input must exist, every output must name a file
in an existing directory, and no output may name the same file as an
input or another output; a failed check exits 1.

Each command loads only the modules it runs. This module imports at top
level only what `gen-synth` and the parser need; `refine`, `ablate`,
`eval`, `theory` and `inspect` import the training, model, evaluation and
theory modules inside their own functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .augment import AugmentConfig, make_positive_pairs
from .embedding_store import dataset_fingerprint, load_embeddings, save_embeddings
from .errors import NumericsError, SimSkipError, ValidationError
from .synth_data import MixtureSpec, apply_class_mixing, generate_gaussian_mixture
from .utils import atomic_write


class _Parser(argparse.ArgumentParser):
    # no prefix matching: an abbreviated flag is an error, never a longer flag
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on usage errors; the pipeline contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _write_json(payload: dict, path: str | None) -> None:
    """Write `payload` as strict JSON (RFC 8259): a NaN or infinite value
    raises NumericsError and nothing is written."""
    import json  # gen-synth writes no JSON

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"report holds a non-finite number ({exc})") from exc
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write(path, text)


def _seed(text: str) -> int:
    """argparse type of every seed flag: numpy takes non-negative seeds only."""
    if int(text) < 0:  # argparse reports a ValueError as an invalid value
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return int(text)


def _check_paths(inputs, outputs) -> None:
    """Check a command's file paths before it reads or writes anything.

    `inputs` and `outputs` are (flag, path) pairs, a None path unset. Each
    input must be an existing file, and each output a path in an existing
    directory that is not itself a directory. No output may be the same
    file as an input or as another output, comparing resolved paths."""
    for _, p in inputs:
        if p is not None and not Path(p).is_file():
            raise ValidationError(f"input file not found: {p}")
    # each resolved path a flag has claimed -> how the error names that claim
    claimed = {Path(p).resolve(): f"the {flag} input; inputs are never overwritten"
               for flag, p in inputs if p is not None}
    for flag, p in outputs:
        if p is None:
            continue
        out = Path(p)
        if not out.parent.is_dir():
            raise ValidationError(f"{flag} {p}: {out.parent} is not an existing directory")
        if out.is_dir():
            raise ValidationError(f"{flag} {p} is a directory, not a file")
        out = out.resolve()
        if out in claimed:
            raise ValidationError(f"{flag} {p} is {claimed[out]}")
        claimed[out] = f"also the {flag} output; each output needs its own file"


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_gen_synth(args) -> int:
    _check_paths([], [("--out", args.out)])
    spec = MixtureSpec(
        num_classes=args.classes,
        dim=args.dim,
        points_per_class=args.per_class,
        seed=args.seed,
    )
    dataset = apply_class_mixing(generate_gaussian_mixture(spec), args.mix_strength, args.seed)
    save_embeddings(dataset, args.out)
    print(f"wrote {args.out} ({dataset.count} rows, dim {dataset.dim})")
    return 0


def _cmd_refine(args) -> int:
    """`refine`, or `ablate`: the same training with the skip path removed."""
    from .model import refine, save_checkpoint
    from .trainer import TrainConfig, load_train_config, train

    _check_paths([("--in", args.infile), ("--config", args.config)],
                 [("--out", args.out), ("--checkpoint", args.checkpoint),
                  ("--report", args.report)])
    dataset = load_embeddings(args.infile)
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    if args.command == "ablate":
        # the ablation removes the skip path, and with it the zero residual head
        cfg = dataclasses.replace(cfg, skip_enabled=False)
    params, losses = train(dataset, cfg)

    refined = refine(params, dataset)
    save_embeddings(refined, args.out)
    if args.checkpoint:
        save_checkpoint(params, args.checkpoint)
    final = losses[-1] if losses else None
    if args.report:
        _write_json({"epoch_losses": losses, "epochs_run": len(losses), "final_loss": final,
                     "config": dataclasses.asdict(cfg), "checkpoint_path": args.checkpoint,
                     "variant": "simskip" if cfg.skip_enabled else "simskip-minus",
                     "input": str(args.infile), "output": str(args.out)}, args.report)
    print(f"wrote {args.out} (final loss {final:.4f})" if losses
          else f"wrote {args.out} (no training epochs)")
    return 0


def _given(**settings) -> dict:
    """The settings whose flag was given; the rest keep the probe type's defaults."""
    return {name: value for name, value in settings.items() if value is not None}


def _cmd_eval(args) -> int:
    from .evaluate import LinearProbe, MLP3Probe, compare_embeddings

    _check_paths([("--original", args.original), *(("--refined", p) for p in args.refined)],
                 [("--report", args.report)])
    original = load_embeddings(args.original)
    # the linear probe heads the report; mlp3 rides along at its own rate and epochs
    linear_cfg = LinearProbe(**_given(epochs=args.probe_epochs))
    mlp3_cfg = MLP3Probe(**_given(hidden_dim=args.hidden_dim))
    original_entry, refined_entries = None, []
    for path in args.refined:
        refined_ds = load_embeddings(path)
        orig, ref = compare_embeddings(original, refined_ds, linear_cfg, args.train_fraction)
        mlp3_orig, mlp3_ref = compare_embeddings(original, refined_ds, mlp3_cfg,
                                                 args.train_fraction)
        secondary = {"kind": mlp3_cfg.kind, "probe_config": mlp3_cfg.to_json_dict()}
        if original_entry is None:  # every comparison scores the same original
            original_entry = {"path": str(args.original), **orig, "secondary_probe":
                              {**secondary, "accuracy": mlp3_orig["probe_accuracy"]}}
        refined_entries.append({"path": str(path), **ref, "secondary_probe": {
            **secondary, "accuracy": mlp3_ref["probe_accuracy"],
            "delta": mlp3_ref["deltas"]["probe_accuracy"]}})
    _write_json({"original": original_entry, "refined": refined_entries}, args.report)
    return 0


def _cmd_theory(args) -> int:
    from .theory import bound_report, sample_triplets

    _check_paths([("--in", args.infile)], [("--report", args.report)])
    dataset = load_embeddings(args.infile)
    triplets = sample_triplets(dataset, k=args.k, count=args.triplets, seed=args.seed)
    payload = bound_report(dataset, triplets)
    payload["config"] |= {"triplets": args.triplets, "seed": args.seed, "input": str(args.infile)}
    _write_json(payload, args.report)
    return 0


def _cmd_augment(args) -> int:
    if args.rows < 1:
        raise ValidationError(f"--rows must be >= 1, got {args.rows}")
    _check_paths([("--in", args.infile)], [("--report", args.report)])
    dataset = load_embeddings(args.infile)
    if args.rows > dataset.count:
        raise ValidationError(f"--rows {args.rows} exceeds the file's {dataset.count} rows")
    cfg = AugmentConfig(mask_prob=args.mask_prob, noise_scale=args.noise_scale)
    rng = np.random.default_rng(args.seed)
    previews = []
    for i in range(args.rows):
        a, b = make_positive_pairs(dataset.vectors[i:i + 1], cfg, rng)
        previews.append({
            "row": i,
            "original": [float(v) for v in dataset.vectors[i]],
            "view_a": [float(v) for v in a],
            "view_b": [float(v) for v in b],
        })
    payload = {
        "config": {**dataclasses.asdict(cfg), "seed": args.seed},
        "previews": previews,
    }
    _write_json(payload, args.report)
    return 0


def _cmd_inspect(args) -> int:
    from .model import CHECKPOINT_MAGIC, load_checkpoint, parameter_counts

    _check_paths([("--in", args.infile)], [("--report", args.report)])
    with open(args.infile, "rb") as fh:
        magic = fh.read(4)
    if magic == CHECKPOINT_MAGIC:
        params = load_checkpoint(args.infile)
        counts = parameter_counts(params.dim)
        payload = {
            "kind": "checkpoint",
            "dim": params.dim,
            "skip_enabled": params.skip_enabled,
            "weight_parameter_counts": counts,
            "weight_parameters_total": sum(counts.values()),
        }
    else:
        dataset = load_embeddings(args.infile)
        payload = {
            "kind": "embeddings",
            "count": dataset.count,
            "dim": dataset.dim,
            "has_labels": dataset.has_labels,
            "fingerprint": dataset_fingerprint(dataset),
        }
        if dataset.count:
            payload["vector_stats"] = {stat: float(getattr(dataset.vectors, stat)())
                                       for stat in ("mean", "std", "min", "max")}
        if dataset.has_labels:
            classes, sizes = np.unique(dataset.labels, return_counts=True)
            payload["classes"] = {str(int(c)): int(n) for c, n in zip(classes, sizes)}
    _write_json(payload, args.report)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simskip",
                     description="Refine embeddings with skip-connection "
                                 "contrastive learning and evaluate the result.")
    parser.add_argument("--version", action="version", version=f"simskip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-synth", help="generate a synthetic labeled mixture")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=0, help="seeds the mixture and the mixing")
    p.add_argument("--mix-strength", type=float, default=0.0,
                   help="blend rows with random rows to degrade class structure")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synth)

    for name, helptext in (("refine", "train a refiner and write refined embeddings"),
                           ("ablate", "refine without the skip connection")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--config", default=None, help="train config file (key = value lines)")
        p.add_argument("--out", required=True, help="refined EMBF output path")
        p.add_argument("--checkpoint", default=None, help="SSKP checkpoint output path")
        p.add_argument("--report", default=None, help="JSON training report path")
        p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval", help="compare original vs refined embeddings")
    p.add_argument("--original", required=True)
    p.add_argument("--refined", nargs="+", required=True)
    p.add_argument("--report", default=None, help="JSON report path (default: stdout)")
    p.add_argument("--hidden-dim", type=int, default=None, help="mlp3 probe hidden width")
    p.add_argument("--probe-epochs", type=int, default=None, help="linear probe epochs")
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("theory", help="triplet margins and loss-bound report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--triplets", type=int, default=1000,
                   help="triplet count, also the sample size M in the bound")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("augment", help="preview augmented positive pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mask-prob", type=float, default=AugmentConfig().mask_prob)
    p.add_argument("--noise-scale", type=float, default=AugmentConfig().noise_scale)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--rows", type=int, default=1)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("inspect", help="summarize an EMBF or SSKP file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_inspect)

    return parser


def parse_and_run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow, invalid operation or division by zero anywhere in NumPy
        # stops the command where it happens, not at a later finiteness check
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (_UsageError, SimSkipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericsError) else 1
    except FloatingPointError as exc:  # a training fault's notes name its stage, innermost first
        stage = ", ".join(reversed(getattr(exc, "__notes__", [])))
        print(f"error: {args.command}: floating-point fault: {stage}{': ' if stage else ''}{exc}",
              file=sys.stderr)
        return 2
    except (MemoryError, OverflowError, ValueError) as exc:  # a size NumPy cannot allocate
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
