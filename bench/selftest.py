"""Quick self-test of the benchmark, outside the repository's test suite.

Usage, from the root of a checkout: python3 bench/selftest.py

Runs the harness's chain twice untraced and once traced on a tiny config,
requires every output check, identical outputs of the two untraced chains
and both trace totals to pass, shows that the checks reject altered
outputs, and compares the independent probe with `pipeline.evaluate`.
Takes a few seconds; exits 1 on the first failure.
"""

from __future__ import annotations

import shutil
import sys
import time

import checks
import run

TINY = {
    **run.BASE_CONFIG, "n_classes": 4, "samples_per_class": 20,
    "image_side": 8, "encoder_widths": "16,16", "embed_dim": 8,
    "k_prototypes": 4, "t_passes": 2, "kmeans_k": 3, "budget_total": 12,
    "n_cycles": 3, "pretrain_epochs": 2, "target_epochs": 2,
    "rotation_epochs": 1, "batch_size": 16, "seed": 5,
}


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}")
    sys.exit(1)


def main() -> int:
    base = run.RUNS_DIR / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    deadline = time.perf_counter() + run.RUN_DEADLINE_S
    digests = []
    for name, trace in (("plain0", False), ("plain1", False),
                        ("traced", True)):
        rdir = base / name
        ops, n_failed = run.run_chain(rdir, TINY, trace, deadline)
        if n_failed:
            fail(f"{n_failed} commands failed in {rdir}")
        problems = run.check_round(rdir, TINY, run.Workload(),
                                   {op.name: op for op in ops})
        if trace:
            metrics, absent = run.read_trace(rdir)
            if absent:
                fail(f"absent layers {sorted(absent)}")
            problems += run.check_trace_totals(TINY, metrics, absent)
        if problems:
            fail(f"{name}: {problems}")
        digests.append(checks.file_digests(rdir, run.output_files(TINY)))
    if any(d != digests[0] for d in digests):
        fail("the chains of one seed wrote different outputs")

    rdir = base / "plain0"
    bundle = checks.read_tensors(rdir / "bundle.bin", checks.MAGIC_DATASET)
    target = checks.read_tensors(rdir / "target_ckpt.bin",
                                 checks.MAGIC_CHECKPOINT)
    source = checks.read_tensors(rdir / "source_ckpt.bin",
                                 checks.MAGIC_CHECKPOINT)

    # the checks must reject outputs that are wrong
    mine = {k: v for k, (v, _) in checks.probe_accs(target, bundle).items()}
    if not checks.check_probe("eval", target, bundle, {
            **mine, "target_acc": mine["target_acc"] + 0.5}):
        fail("a wrong printed accuracy passed the probe check")
    moved = {**target, "prototypes.vectors": target["prototypes.vectors"] + 1}
    if not checks.check_checkpoints(source, moved):
        fail("changed frozen prototypes passed the checkpoint check")
    coreset = rdir / "coreset.txt"
    lines = coreset.read_text().splitlines()
    coreset.write_text("\n".join(lines[:-1] + [lines[1]]) + "\n")
    if not checks.check_coreset(coreset, TINY, len(bundle["target_x"]), []):
        fail("a core-set with a repeated index passed the core-set check")

    # the independent probe agrees with the package's evaluator
    sys.path.insert(0, str(run.ROOT / "src"))
    from a3 import data, models, pipeline

    accs = pipeline.evaluate(models.load_checkpoint(rdir / "target_ckpt.bin"),
                             data.load_bundle(rdir / "bundle.bin"))
    for key, value in mine.items():
        if value != accs[key]:
            fail(f"probe {key} {value} != pipeline.evaluate {accs[key]}")
    shutil.rmtree(base)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
