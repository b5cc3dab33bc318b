"""Benchmark of the `a3` command line: gen -> pretrain -> adapt -> eval.

Usage, from the root of a checkout:

    python3 bench/run.py --workload default_chain --seed 1 --seconds 30 \
        --trace 0

A round runs the four commands of the chain the way a user does, as
separate processes one after another, each pinned to one BLAS thread, and
then checks every output against the benchmark's own computations
(checks.py). Each command counts as one operation. Rounds repeat until the
next one would end after --seconds, and every run makes at least two, so
that the determinism check has two rounds to compare. Timings are medians
over the rounds.

--trace 0 reports the end-to-end metrics. --trace 1 runs each command
under traced.py and reports the per-layer metrics instead, summed over the
four commands of a round; it also checks two totals that the trace and the
config reach by independent paths. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from traced import GC_FIELDS, layer_fields

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "_runs"
# the whole run must end well within 180 s
RUN_DEADLINE_S = 170.0
MIN_ROUNDS = 2

# Every config key that the checks or the derived counts read is written
# into the run's config file, so that a change of a RunConfig default does
# not silently change a workload. These are the defaults of RunConfig,
# except target_epochs: the default 30 makes a round take about 50 s, too
# long for the number of runs a comparison needs. Pretraining keeps its 30
# epochs: with 8 to 20, target_acc spread by 8-30% across seeds or the
# adaptation gain vanished on some seeds.
BASE_CONFIG = {
    "n_classes": 10, "samples_per_class": 100, "image_side": 16,
    "encoder_widths": "128,128", "embed_dim": 32, "k_prototypes": 16,
    "lambda1": 0.25, "lambda2": 0.02, "loss_variant": "consolidated",
    "t_passes": 10, "kmeans_k": 16, "budget_total": 900, "n_cycles": 4,
    "rescore_each_cycle": True, "pretrain_epochs": 30, "target_epochs": 6,
    "rotation_epochs": 5, "batch_size": 64, "warm_start": False,
    "freeze_prototypes": True, "data_seed": 0,
}


@dataclass(frozen=True)
class Workload:
    overrides: dict = field(default_factory=dict)
    # the adapted target accuracy must beat the source-only one
    expect_gain: bool = False

    def config(self, seed: int) -> dict:
        """The workload's dataset is fixed by its data_seed; the benchmark
        seed drives every random draw of training and acquisition."""
        return {**BASE_CONFIG, **self.overrides, "seed": seed}


WORKLOADS = {
    # the default chain users start with; augmentation and the adaptation
    # step (encode, backward, VAT, DAL) dominate
    "default_chain": Workload(expect_gain=True),
    # a 2500-row pool, a budget of 8% of it over five cycles, more MC
    # passes and clusters, short adaptation: pool scoring dominates. With
    # eight pretraining epochs instead of twelve, target_acc fell by a
    # third on one seed in ten.
    "large_pool": Workload({
        "samples_per_class": 250, "n_cycles": 6, "budget_total": 200,
        "t_passes": 16, "kmeans_k": 32, "pretrain_epochs": 12,
        "target_epochs": 2}),
}


def output_files(cfg: dict) -> list[str]:
    """Every file the chain writes, which must repeat bit for bit."""
    return ["bundle.bin", "source_ckpt.bin", "metrics_pretrain.jsonl",
            "target_ckpt.bin", "coreset.txt", "metrics_adapt.jsonl"] + [
        f"embeds_stage{s}.bin" for s in range(1, cfg["n_cycles"])]


# ---------------------------------------------------------------------------
# Counts derived from the config alone
# ---------------------------------------------------------------------------

def _steps(rows: int, batch: int, min_rows: int, epochs: int) -> int:
    """Optimizer steps: a trailing minibatch below min_rows is dropped."""
    return epochs * (rows // batch + (rows % batch >= min_rows))


def expected_sgd_steps(cfg: dict) -> int:
    bs = cfg["batch_size"]
    min_rows = max(2, cfg["k_prototypes"])
    n = cfg["n_classes"] * cfg["samples_per_class"]
    stages = cfg["n_cycles"] - 1
    per_cycle = cfg["budget_total"] // stages
    total = _steps(n, bs, min_rows, cfg["pretrain_epochs"])
    # rotation training on 4 rotations of the pool, then of each core-set
    total += _steps(4 * n, bs, 2, cfg["rotation_epochs"])
    for stage in range(1, stages + 1):
        core = stage * per_cycle
        total += _steps(core, bs, min_rows, cfg["target_epochs"])
        total += _steps(4 * core, bs, 2, cfg["rotation_epochs"])
    return total


def expected_scored_rows(cfg: dict) -> int:
    """Rows scored over all cycles: the pool left before each cycle."""
    n = cfg["n_classes"] * cfg["samples_per_class"]
    stages = cfg["n_cycles"] - 1
    per_cycle = cfg["budget_total"] // stages
    return sum(n - c * per_cycle for c in range(stages))


# ---------------------------------------------------------------------------
# One round of the chain
# ---------------------------------------------------------------------------

@dataclass
class Op:
    name: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str


def run_op(name: str, argv: list[str], rdir: Path, trace: bool,
           deadline: float) -> Op:
    if trace:
        cmd = [sys.executable, str(BENCH_DIR / "traced.py"),
               f"trace_{name}.json", *argv]
    else:
        cmd = [sys.executable, "-m", "a3.cli", *argv]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out_path = rdir / f"{name}.stdout.log"
    with open(out_path, "w") as out, \
            open(rdir / f"{name}.stderr.log", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=rdir, env=env, stdout=out,
                                stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.perf_counter()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(name, wall, usage.ru_maxrss / 1024.0, proc.returncode,
              out_path.read_text())


def run_chain(rdir: Path, cfg: dict, trace: bool,
              deadline: float) -> tuple[list[Op], int]:
    """The four commands; returns the ops run and the number that failed.
    A failed command fails the commands after it, which need its output."""
    rdir.mkdir(parents=True)
    (rdir / "run.cfg").write_text("".join(
        f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n"
        for k, v in cfg.items()))
    common = ["--config", "run.cfg"]
    chain = [
        ("gen", ["gen", "--out", "bundle.bin", *common]),
        ("pretrain", ["pretrain", "--out", ".", "--bundle", "bundle.bin",
                      *common]),
        ("adapt", ["adapt", "--source-ckpt", "source_ckpt.bin", "--out", ".",
                   "--bundle", "bundle.bin", *common]),
        ("eval", ["eval", "--ckpt", "target_ckpt.bin", "--bundle",
                  "bundle.bin", *common]),
    ]
    ops = []
    for i, (name, argv) in enumerate(chain):
        op = run_op(name, argv, rdir, trace, deadline)
        ops.append(op)
        if op.exit_code != 0:
            err = (rdir / f"{name}.stderr.log").read_text()[-2000:]
            print(f"a3 {name} exited with {op.exit_code}:\n{err}",
                  file=sys.stderr)
            return ops, len(chain) - i
    return ops, 0


def check_round(rdir: Path, cfg: dict, wl: Workload,
                ops: dict[str, Op]) -> list[str]:
    bundle = checks.read_tensors(rdir / "bundle.bin", checks.MAGIC_DATASET)
    source = checks.read_tensors(rdir / "source_ckpt.bin",
                                 checks.MAGIC_CHECKPOINT)
    target = checks.read_tensors(rdir / "target_ckpt.bin",
                                 checks.MAGIC_CHECKPOINT)
    pre_recs = checks.read_records(rdir / "metrics_pretrain.jsonl")
    ada_recs = checks.read_records(rdir / "metrics_adapt.jsonl")
    n_source = len(bundle["source_x"])
    n_target = len(bundle["target_x"])
    stages = cfg["n_cycles"] - 1
    pre_accs = checks.printed_accs(ops["pretrain"].stdout)
    eval_accs = checks.printed_accs(ops["eval"].stdout)
    problems = []
    problems += checks.check_probe("pretrain", source, bundle, pre_accs)
    problems += checks.check_probe("eval", target, bundle, eval_accs)
    problems += checks.check_coreset(rdir / "coreset.txt", cfg, n_target,
                                     ada_recs)
    problems += checks.check_checkpoints(source, target)
    problems += checks.check_losses(cfg, "pretrain", pre_recs,
                                    cfg["pretrain_epochs"])
    problems += checks.check_losses(cfg, "adapt", ada_recs,
                                    stages * cfg["target_epochs"])
    problems += checks.check_embeddings(rdir, stages, n_source, n_target)
    if wl.expect_gain and not problems and \
            not eval_accs["target_acc"] > pre_accs["target_acc"]:
        problems.append(f"no adaptation gain: target_acc "
                        f"{eval_accs['target_acc']} after adaptation, "
                        f"{pre_accs['target_acc']} source-only")
    return problems


def read_trace(rdir: Path) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of one round, summed over its four commands."""
    metrics: dict[str, float] = {}
    absent: set[str] = set()
    for trace_file in sorted(rdir.glob("trace_*.json")):
        trace = json.loads(trace_file.read_text())
        absent.update(trace["absent"])
        for layer, fields in trace["layers"].items():
            for name, value in fields.items():
                key = f"{layer}.{name}"
                metrics[key] = metrics.get(key, 0) + value
        for name, value in trace["gc"].items():
            key = f"runtime.gc.{name}"
            metrics[key] = metrics.get(key, 0) + value
    return metrics, absent


def check_trace_totals(cfg: dict, metrics: dict[str, float],
                       absent: set[str]) -> list[str]:
    """Counts reached by the trace and by the config must agree exactly."""
    expected = {"pipeline.sgd_step.calls": expected_sgd_steps(cfg),
                "active.mc_dropout.rows": expected_scored_rows(cfg),
                "active.bald.calls": expected_scored_rows(cfg)}
    problems = []
    for key, want in expected.items():
        if metrics[key] == 0 and absent:
            print(f"skipped {key} check: layer absent")
        elif metrics[key] != want:
            problems.append(f"trace {key} = {metrics[key]}, config gives "
                            f"{want}")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # a terminated run unwinds, so run_op kills and reaps its command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "a3" / "cli.py").is_file():
        print(f"error: no a3 package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed)
    trace = bool(args.trace)
    run_dir = RUNS_DIR / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    problems: list[str] = []
    rounds: list[dict[str, float]] = []
    walls: list[float] = []
    digests: list[dict[str, str]] = []
    absent: set[str] = set()
    while True:
        rdir = run_dir / f"round{len(rounds)}"
        ops, n_failed = run_chain(rdir, cfg, trace, deadline)
        attempted += 4
        failed += n_failed
        if n_failed:
            break
        by_name = {op.name: op for op in ops}
        round_problems = check_round(rdir, cfg, wl, by_name)
        digests.append(checks.file_digests(rdir, output_files(cfg)))
        if trace:
            metrics, round_absent = read_trace(rdir)
            absent |= round_absent
            round_problems += check_trace_totals(cfg, metrics, round_absent)
        else:
            metrics = {
                "setup_s": by_name["gen"].wall_s,
                "pretrain_s": by_name["pretrain"].wall_s,
                "adapt_s": by_name["adapt"].wall_s,
                "total_s": sum(op.wall_s for op in ops),
                "peak_rss_mb": max(op.peak_rss_mb for op in ops),
                "target_acc": checks.printed_accs(
                    by_name["eval"].stdout)["target_acc"],
            }
        rounds.append(metrics)
        walls.append(sum(op.wall_s for op in ops))
        problems += [f"round {len(rounds) - 1}: {p}" for p in round_problems]
        print(f"round {len(rounds) - 1}: "
              + " ".join(f"{op.name} {op.wall_s:.3f}s" for op in ops)
              + f" ({len(round_problems)} problems)")
        if len(rounds) > 1:
            shutil.rmtree(run_dir / f"round{len(rounds) - 2}")
        next_end = time.perf_counter() - start + max(walls)
        if next_end > RUN_DEADLINE_S or (
                len(rounds) >= MIN_ROUNDS and next_end > args.seconds):
            break

    if any(d != digests[0] for d in digests):
        problems.append("output files differ between rounds of one seed")
    for p in problems:
        print(f"check failed: {p}")
    if absent:
        print("absent layers: " + ", ".join(sorted(absent)))
    print(f"rounds {len(rounds)}, chain seconds per round "
          + " ".join(f"{w:.3f}" for w in walls))

    result = {"correct": not problems and bool(rounds),
              "attempted": attempted, "failed": failed, "metrics": {}}
    if rounds:
        result["metrics"] = report(rounds, trace)
    print(json.dumps(result))
    return 0


E2E_UNITS = {"setup_s": "s", "pretrain_s": "s", "adapt_s": "s",
             "total_s": "s", "peak_rss_mb": "MiB", "target_acc": "fraction"}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "rows",
               "bytes": "bytes", "rss_growth_mb": "MiB",
               "rss_growth_incl_mb": "MiB"}
GC_UNITS = {"collections": "count", "s": "s", "collected": "objects"}


def report(rounds: list[dict[str, float]], trace: bool) -> dict:
    """Medians over the rounds. Every round's `a3 gen` is a new process, so
    each setup_s is a cold set-up."""
    if trace:
        units = {f"{layer}.{name}": FIELD_UNITS[name]
                 for layer, names in layer_fields().items()
                 for name in names}
        units.update({f"runtime.gc.{name}": GC_UNITS[name]
                      for name in GC_FIELDS})
    else:
        units = E2E_UNITS
    out = {}
    for key, unit in units.items():
        value = statistics.median(r.get(key, 0) for r in rounds)
        out[key] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
