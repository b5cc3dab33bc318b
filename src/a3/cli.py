"""Command-line entry point for the adaptation workflow.

Subcommands cover the whole pipeline: `gen` writes a synthetic
source/target bundle, `pretrain` fits the source model, `adapt` runs the
active adaptation cycles, `eval` reports probe accuracies, `ablate`
sweeps the acquisition and loss variants, and `report` summarizes
metrics files. Every run-configuration field is available both as a
`--flag` and as a `key = value` line in a `--config` file; flags win.

Exit codes: 0 on success, 2 on configuration or file errors (including
usage errors), 3 on numeric aborts. On a numeric abort the last finite
checkpoint is saved next to the requested output when possible.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import active, data, models, pipeline
from .errors import A3Error, ConfigError, NumericError

# Acquisition rows run under the consolidated loss; loss rows run under
# hybrid acquisition. Both defaults come from RunConfig, so each variant
# overrides exactly one axis.
ABLATION_VARIANTS = {
    "hybrid": {"acquisition": "hybrid"},
    "uncertainty": {"acquisition": "uncertainty"},
    "random": {"acquisition": "random"},
    "consolidated": {"loss_variant": "consolidated"},
    "dal_vat": {"loss_variant": "dal_vat"},
    "entropy": {"loss_variant": "entropy"},
}

SOURCE_CKPT_NAME = "source_ckpt.bin"
TARGET_CKPT_NAME = "target_ckpt.bin"


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="read run configuration from a key = value file")
    group = parser.add_argument_group(
        "run configuration", "any field may also be set in the --config file")
    for f in dataclasses.fields(pipeline.RunConfig):
        group.add_argument("--" + f.name.replace("_", "-"),
                           dest="cfg_" + f.name, metavar="V", default=None,
                           help=f"default: {f.default}")


def _build_config(args: argparse.Namespace) -> pipeline.RunConfig:
    overrides = {}
    for f in dataclasses.fields(pipeline.RunConfig):
        raw = getattr(args, "cfg_" + f.name)
        if raw is not None:
            overrides[f.name] = raw
    if args.config is not None:
        return pipeline.load_config(args.config, overrides)
    return pipeline.config_from_pairs(overrides)


def _load_or_make_bundle(args: argparse.Namespace,
                         config: pipeline.RunConfig) -> data.DatasetBundle:
    if getattr(args, "bundle", None) is not None:
        return data.load_bundle(args.bundle)
    return data.generate_domain_pair(config.domain_spec())


def _numeric_abort(exc: NumericError, save_to: Path | None) -> int:
    print(f"error: {exc}", file=sys.stderr)
    last = getattr(exc, "last_good", None)
    if last is not None and save_to is not None:
        save_to.parent.mkdir(parents=True, exist_ok=True)
        models.save_checkpoint(save_to, last)
        print(f"last finite checkpoint saved to {save_to}", file=sys.stderr)
    return 3


def _print_accs(accs: dict[str, float]) -> None:
    print(f"source_probe_acc = {accs['source_probe_acc']:.4f}")
    print(f"target_acc = {accs['target_acc']:.4f}")


def _cmd_gen(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = data.generate_domain_pair(config.domain_spec())
    data.save_bundle(args.out, bundle)
    print(f"wrote {args.out}: {bundle.source_x.shape[0]} source / "
          f"{bundle.target_x.shape[0]} target samples, "
          f"dim {bundle.source_x.shape[1]}")
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    config = _build_config(args)
    bundle = _load_or_make_bundle(args, config)
    out = Path(args.out)
    evaluator = pipeline.make_evaluator(bundle) if args.track_accuracy \
        else None
    try:
        ckpt, records = pipeline.pretrain_source(config, bundle.source_x,
                                                 evaluator=evaluator)
    except NumericError as exc:
        return _numeric_abort(exc, out / SOURCE_CKPT_NAME)
    out.mkdir(parents=True, exist_ok=True)
    models.save_checkpoint(out / SOURCE_CKPT_NAME, ckpt)
    pipeline.write_metrics(out / "metrics_pretrain.jsonl", records)
    print(f"wrote {out / SOURCE_CKPT_NAME}")
    _print_accs(pipeline.evaluate(ckpt, bundle))
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    config = _build_config(args)
    source_ckpt = models.load_checkpoint(args.source_ckpt)
    bundle = _load_or_make_bundle(args, config)
    out = Path(args.out)
    evaluator = pipeline.make_evaluator(bundle) if args.track_accuracy \
        else None
    try:
        # adapt creates the output directory once its checks pass
        ckpt, core, records = pipeline.adapt(
            config, source_ckpt, bundle.target_x, source_x=bundle.source_x,
            evaluator=evaluator, out_dir=out)
    except NumericError as exc:
        return _numeric_abort(exc, out / TARGET_CKPT_NAME)
    models.save_checkpoint(out / TARGET_CKPT_NAME, ckpt)
    active.save_coreset(out / "coreset.txt", core)
    pipeline.write_metrics(out / "metrics_adapt.jsonl", records)
    print(f"wrote {out / TARGET_CKPT_NAME} "
          f"(core-set {len(core.selected)}/{core.budget_total})")
    _print_accs(pipeline.evaluate(ckpt, bundle))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _build_config(args)
    ckpt = models.load_checkpoint(args.ckpt)
    bundle = _load_or_make_bundle(args, config)
    _print_accs(pipeline.evaluate(ckpt, bundle))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    config = _build_config(args)
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not names:
        raise ConfigError("--variants must name at least one variant")
    for name in names:
        if name not in ABLATION_VARIANTS:
            raise ConfigError(
                f"unknown variant {name!r}; choose from "
                f"{', '.join(sorted(ABLATION_VARIANTS))}")
    out = Path(args.out)
    bundle = _load_or_make_bundle(args, config)
    # every variant adapts this pool with the same budget, so a pool that
    # adapt would refuse is refused before the shared pretraining
    pipeline.check_target_pool(config, bundle.target_x)

    # one shared source checkpoint keeps the comparison apples-to-apples
    try:
        ckpt, _ = pipeline.pretrain_source(config, bundle.source_x)
    except NumericError as exc:
        return _numeric_abort(exc, out / "last_good_source.bin")
    base = pipeline.evaluate(ckpt, bundle)
    print(f"{'variant':<14} {'target_acc':>10} {'gain':>8}")
    print(f"{'source-only':<14} {base['target_acc']:>10.4f} {'':>8}")
    for name in names:
        vcfg = dataclasses.replace(config, **ABLATION_VARIANTS[name])
        try:
            adapted, _, records = pipeline.adapt(vcfg, ckpt, bundle.target_x)
        except NumericError as exc:
            return _numeric_abort(exc, out / f"last_good_{name}.bin")
        out.mkdir(parents=True, exist_ok=True)
        pipeline.write_metrics(out / f"metrics_{name}.jsonl", records)
        accs = pipeline.evaluate(adapted, bundle)
        gain = accs["target_acc"] - base["target_acc"]
        print(f"{name:<14} {accs['target_acc']:>10.4f} {gain:>+8.4f}")
    return 0


def _fmt_acc(v: float) -> str:
    return f"{v:.4f}" if v >= 0.0 else "-"


def _cmd_report(args: argparse.Namespace) -> int:
    for path in args.metrics:
        records = pipeline.read_metrics(path)
        print(path)
        print(f"  {'stage':>5} {'epochs':>6} {'swap':>9} {'dal':>9} "
              f"{'ent':>9} {'vat':>9} {'total':>9} {'core':>5} "
              f"{'src_acc':>8} {'tgt_acc':>8}")
        by_stage: dict[int, pipeline.MetricsRecord] = {}
        for r in records:
            by_stage[r.stage] = r
        for stage in sorted(by_stage):
            r = by_stage[stage]
            print(f"  {r.stage:>5} {r.epoch + 1:>6} {r.swap:>9.4f} "
                  f"{r.dal:>9.4f} {r.ent:>9.4f} {r.vat:>9.4f} "
                  f"{r.total:>9.4f} {r.coreset_size:>5} "
                  f"{_fmt_acc(r.source_probe_acc):>8} "
                  f"{_fmt_acc(r.target_acc):>8}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a3",
        description="source-free active domain adaptation pipeline")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("gen", help="write a synthetic source/target bundle")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="bundle output path")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pretrain", help="self-supervised source pretraining")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the checkpoint and metrics")
    p.add_argument("--bundle", metavar="FILE", default=None,
                   help="bundle file; omitted -> generate from the config")
    p.add_argument("--track-accuracy", action="store_true",
                   help="log probe accuracies every epoch (slower)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("adapt", help="active adaptation from a source model")
    p.add_argument("--source-ckpt", required=True, metavar="FILE",
                   help="checkpoint produced by `a3 pretrain`")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for checkpoint, core-set, metrics, dumps")
    p.add_argument("--bundle", metavar="FILE", default=None,
                   help="bundle file; omitted -> generate from the config")
    p.add_argument("--track-accuracy", action="store_true",
                   help="log probe accuracies every epoch (slower)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("eval", help="probe accuracies of a checkpoint")
    p.add_argument("--ckpt", required=True, metavar="FILE",
                   help="checkpoint to evaluate")
    p.add_argument("--bundle", metavar="FILE", default=None,
                   help="bundle file; omitted -> generate from the config")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "ablate", help="run acquisition and loss variants on one bundle")
    p.add_argument("--variants", required=True, metavar="LIST",
                   help="comma list: " + ",".join(ABLATION_VARIANTS))
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for per-variant metrics files")
    p.add_argument("--bundle", metavar="FILE", default=None,
                   help="bundle file; omitted -> generate from the config")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("report", help="summarize metrics files")
    p.add_argument("--metrics", required=True, metavar="FILE", nargs="+",
                   help="metrics JSONL files to summarize")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # A diverging run overflows, or takes the log of an underflowed
        # probability, before the finite checks turn it into a
        # NumericError; the error line alone reports it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except (A3Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
