"""Command-line pipeline: synthesize, refine, evaluate, ablate, theory-check.

Subcommands
    gen-synth   write a labeled synthetic mixture as an EMBF file
    refine      train a refiner on an EMBF file; write refined EMBF,
                checkpoint, and a JSON training report
    ablate      `refine` with the skip connection removed (reports tagged
                "simskip-minus")
    eval        compare an original embedding against refined ones
    theory      triplet margins, loss-bound terms, JSON bound report
    augment     preview augmented positive pairs for the first rows
    inspect     print a JSON summary of an EMBF or SSKP file

Exit codes: 0 success, 1 validation/format/usage errors, 2 internal
numeric failure. Every run is deterministic for fixed seeds: rerunning a
command overwrites its outputs with identical bytes, and input files are
never modified. The SIMSKIP_THREADS environment variable caps worker
threads (default: available parallelism).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .augment import AugmentConfig, KINDS, make_positive_pair
from .embedding_store import (
    dataset_fingerprint,
    load_embeddings,
    save_embeddings,
)
from .errors import NumericsError, SimSkipError, ValidationError
from .evaluate import LINEAR, MLP3, ProbeConfig, SplitConfig, compare_embeddings
from .model import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    parameter_counts,
    refine,
    save_checkpoint,
)
from .synth_data import MixtureSpec, apply_class_mixing, generate_gaussian_mixture
from .theory import BoundInputs, bound_report, sample_triplets
from .trainer import LEARNING_RATE_GRID, TrainConfig, load_train_config, train
from .utils import atomic_write


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the pipeline contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write(path, text)


def _require_inputs(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise ValidationError(f"input file not found: {p}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_gen_synth(args) -> int:
    spec = MixtureSpec(
        num_classes=args.classes,
        dim=args.dim,
        points_per_class=args.per_class,
        class_separation=args.separation,
        cluster_sigma=args.sigma,
        seed=args.seed,
    )
    dataset = generate_gaussian_mixture(spec)
    if args.mix_strength > 0:
        mix_seed = args.mix_seed if args.mix_seed is not None else args.seed
        dataset = apply_class_mixing(dataset, args.mix_strength, mix_seed)
    save_embeddings(dataset, args.out)
    print(f"wrote {args.out} ({dataset.count} rows, dim {dataset.dim})")
    return 0


def _run_refine(args, skip_enabled_override: bool | None, variant: str) -> int:
    _require_inputs(args.infile, args.config)
    dataset = load_embeddings(args.infile)
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    if skip_enabled_override is not None:
        # the ablation removes the skip path; a zero-initialized residual
        # head would then make the encoder the zero map, so drop that too
        cfg = dataclasses.replace(cfg, skip_enabled=skip_enabled_override,
                                  zero_init_residual_out=False)
    if dataset.count < cfg.batch_size:
        # default batch size clamps to desk-scale datasets
        cfg = dataclasses.replace(cfg, batch_size=max(2, dataset.count))

    sweep_results = None
    if args.lr_sweep:
        # train once per grid rate, keep the run with the lowest final loss
        runs = []
        for lr in LEARNING_RATE_GRID:
            cand_params, cand_report = train(dataset, dataclasses.replace(cfg, learning_rate=lr))
            runs.append((cand_report.epoch_losses[-1], lr, cand_params, cand_report))
        final_loss, best_lr, params, report = min(runs, key=lambda r: (r[0], r[1]))
        sweep_results = {f"{lr:g}": loss for loss, lr, _, _ in runs}
    else:
        params, report = train(dataset, cfg)

    refined = refine(params, dataset)
    save_embeddings(refined, args.out)
    if args.checkpoint:
        save_checkpoint(params, args.checkpoint)
        report.checkpoint_path = args.checkpoint
    if args.report:
        payload = report.to_json_dict()
        payload["variant"] = variant
        payload["input"] = str(args.infile)
        payload["output"] = str(args.out)
        if sweep_results is not None:
            payload["lr_sweep_final_losses"] = sweep_results
        _write_json(payload, args.report)
    print(f"wrote {args.out} (final loss {report.epoch_losses[-1]:.4f})"
          if report.epoch_losses else f"wrote {args.out} (no training epochs)")
    return 0


def _cmd_refine(args) -> int:
    return _run_refine(args, skip_enabled_override=None, variant="simskip")


def _cmd_ablate(args) -> int:
    return _run_refine(args, skip_enabled_override=False, variant="simskip-minus")


def _cmd_eval(args) -> int:
    _require_inputs(args.original, *args.refined)
    original = load_embeddings(args.original)
    probe_cfg = ProbeConfig(
        kind=args.probe,
        hidden_dim=args.hidden_dim,
        learning_rate=args.probe_lr,
        epochs=args.probe_epochs,
        seed=args.probe_seed,
    )
    # the other probe kind is reported alongside the primary one
    other_kind = MLP3 if args.probe == LINEAR else LINEAR
    other_cfg = dataclasses.replace(probe_cfg, kind=other_kind,
                                    learning_rate=None, epochs=None)
    split_cfg = SplitConfig(train_fraction=args.train_fraction, seed=args.split_seed)
    comparisons = []
    for path in args.refined:
        refined_ds = load_embeddings(path)
        comp = compare_embeddings(original, refined_ds, probe_cfg, split_cfg, knn_k=args.knn_k)
        other = compare_embeddings(original, refined_ds, other_cfg, split_cfg, knn_k=args.knn_k)
        comparisons.append((str(path), comp, other))

    first_comp, first_other = comparisons[0][1], comparisons[0][2]
    payload = {
        "original": {
            "path": str(args.original),
            **first_comp.original.to_json_dict(),
            "secondary_probe": {
                "kind": other_kind,
                "accuracy": first_other.original.probe_accuracy,
            },
        },
        "refined": [
            {
                "path": path,
                **comp.refined.to_json_dict(),
                "secondary_probe": {
                    "kind": other_kind,
                    "accuracy": other.refined.probe_accuracy,
                    "delta": other.probe_delta,
                },
                "deltas": {"knn_score": comp.knn_delta, "probe_accuracy": comp.probe_delta},
            }
            for path, comp, other in comparisons
        ],
    }
    _write_json(payload, args.report)
    if args.csv:
        header, _ = comparisons[0][1].to_csv_row()
        lines = ["path," + ",".join(header)]
        for path, comp, _other in comparisons:
            _, row = comp.to_csv_row()
            lines.append(path + "," + ",".join(row))
        atomic_write(args.csv, "\n".join(lines) + "\n")
    return 0


def _cmd_theory(args) -> int:
    _require_inputs(args.infile)
    dataset = load_embeddings(args.infile)
    triplets = sample_triplets(dataset, k=args.k, count=args.triplets, seed=args.seed)
    inputs = BoundInputs(
        R=args.radius,
        rademacher=args.rademacher,
        M=args.sample_size if args.sample_size is not None else args.triplets,
        delta_conf=args.delta_conf,
        k=args.k,
        alpha=args.alpha,
        eta=args.eta,
        eps_slack=args.eps_slack,
    )
    payload = bound_report(dataset, triplets, inputs)
    payload["config"]["triplets"] = args.triplets
    payload["config"]["seed"] = args.seed
    payload["config"]["input"] = str(args.infile)
    _write_json(payload, args.report)
    return 0


def _cmd_augment(args) -> int:
    _require_inputs(args.infile)
    dataset = load_embeddings(args.infile)
    cfg = AugmentConfig(kind=args.kind, mask_prob=args.mask_prob,
                        noise_scale=args.noise_scale, seed=args.seed)
    rng = cfg.rng()
    rows = min(args.rows, dataset.count)
    previews = []
    for i in range(rows):
        a, b = make_positive_pair(dataset.vectors[i], cfg, rng)
        previews.append({
            "row": i,
            "original": [float(v) for v in dataset.vectors[i]],
            "view_a": [float(v) for v in a],
            "view_b": [float(v) for v in b],
        })
    payload = {
        "config": {"kind": cfg.kind, "mask_prob": cfg.mask_prob,
                   "noise_scale": cfg.noise_scale, "seed": cfg.seed},
        "previews": previews,
    }
    _write_json(payload, args.report)
    return 0


def _cmd_inspect(args) -> int:
    _require_inputs(args.infile)
    magic = Path(args.infile).open("rb").read(4)
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
            payload["vector_stats"] = {
                "mean": float(dataset.vectors.mean()),
                "std": float(dataset.vectors.std()),
                "min": float(dataset.vectors.min()),
                "max": float(dataset.vectors.max()),
            }
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
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mix-strength", type=float, default=0.0,
                   help="blend rows with random rows to degrade class structure")
    p.add_argument("--mix-seed", type=int, default=None)
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
        p.add_argument("--lr-sweep", action="store_true",
                       help=f"train at each rate in {LEARNING_RATE_GRID} and keep the best")
        p.set_defaults(func=_cmd_refine if name == "refine" else _cmd_ablate)

    p = sub.add_parser("eval", help="compare original vs refined embeddings")
    p.add_argument("--original", required=True)
    p.add_argument("--refined", nargs="+", required=True)
    p.add_argument("--report", default=None, help="JSON report path (default: stdout)")
    p.add_argument("--csv", default=None, help="optional flat CSV output")
    p.add_argument("--knn-k", type=int, default=10)
    p.add_argument("--probe", choices=(LINEAR, MLP3), default=LINEAR)
    p.add_argument("--hidden-dim", type=int, default=64)
    p.add_argument("--probe-lr", type=float, default=None)
    p.add_argument("--probe-epochs", type=int, default=None)
    p.add_argument("--probe-seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("theory", help="triplet margins and loss-bound report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--triplets", type=int, default=1000)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=float, default=1.0, help="norm bound R")
    p.add_argument("--rademacher", type=float, default=1.0)
    p.add_argument("--sample-size", type=int, default=None,
                   help="M in the bound (default: triplet count)")
    p.add_argument("--delta-conf", type=float, default=0.05)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--eps-slack", type=float, default=0.0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("augment", help="preview augmented positive pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=KINDS, default="gaussian")
    p.add_argument("--mask-prob", type=float, default=0.2)
    p.add_argument("--noise-scale", type=float, default=AugmentConfig().noise_scale)
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimSkipError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
