"""Output checks of one round of the chain, computed without the package.

Each check compares an output file of `a3` against the benchmark's own
NumPy computation or against a property the method must have; none
compares against a saved copy. Every check returns a list of problems,
empty when the outputs are correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

MAGIC_CHECKPOINT = b"A3CKPT1"
MAGIC_DATASET = b"A3DATA1"
MAGIC_EMBEDDINGS = b"A3EMBD1"

# the evaluation protocol that `a3 eval` documents
EVAL_SPLIT_SEED = 1729
EVAL_HOLDOUT_FRAC = 0.2
PROBE_STEPS = 200
PROBE_LR = 0.1
NORM_EPS = 1e-12


def read_tensors(path: Path, magic: bytes) -> dict[str, np.ndarray]:
    """Named float64 tensors of a container file: after the magic, a u64
    count, then per entry a u32 name length, the name, a u32 rank, u64
    dims and the little-endian payload."""
    raw = path.read_bytes()
    if not raw.startswith(magic):
        raise ValueError(f"{path.name}: bad magic")
    at = len(magic)

    def take(fmt: str):
        nonlocal at
        vals = struct.unpack_from(fmt, raw, at)
        at += struct.calcsize(fmt)
        return vals

    (count,) = take("<Q")
    out = {}
    for _ in range(count):
        (name_len,) = take("<I")
        name = raw[at:at + name_len].decode("utf-8")
        at += name_len
        (rank,) = take("<I")
        dims = take(f"<{rank}Q")
        n = math.prod(dims)
        out[name] = np.frombuffer(raw, "<f8", n, at).reshape(dims)
        at += 8 * n
    return out


def read_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def printed_accs(stdout: str) -> dict[str, float]:
    """`key = value` accuracy lines that pretrain, adapt and eval print."""
    accs = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key in ("source_probe_acc", "target_acc"):
            accs[key] = float(value)
    return accs


def file_digests(rdir: Path, names: list[str]) -> dict[str, str]:
    return {n: hashlib.sha256((rdir / n).read_bytes()).hexdigest()
            for n in names}


# ---------------------------------------------------------------------------
# Probe accuracy
# ---------------------------------------------------------------------------

def embed(ckpt: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings: ReLU MLP layers, then the linear projection."""
    h = x
    i = 0
    while f"encoder.layer{i}.weight" in ckpt:
        h = np.maximum(h @ ckpt[f"encoder.layer{i}.weight"].T
                       + ckpt[f"encoder.layer{i}.bias"], 0.0)
        i += 1
    z = h @ ckpt["encoder.projection"].T
    return z / (np.sqrt((z * z).sum(axis=1, keepdims=True)) + NORM_EPS)


def probe_accs(ckpt: dict[str, np.ndarray],
               bundle: dict[str, np.ndarray]) -> dict[str, tuple[float, int]]:
    """(accuracy, sample count) of a zero-init logistic-regression probe
    fitted on 80% of the source embeddings, on the other 20% and on the
    whole target set."""
    src = embed(ckpt, bundle["source_x"])
    tgt = embed(ckpt, bundle["target_x"])
    y = bundle["source_y"].astype(np.int64)
    n_classes = int(y.max()) + 1
    perm = np.random.default_rng(EVAL_SPLIT_SEED).permutation(len(src))
    n_hold = max(1, int(round(len(src) * EVAL_HOLDOUT_FRAC)))
    hold, fit = perm[:n_hold], perm[n_hold:]
    x = src[fit]
    onehot = np.eye(n_classes)[y[fit]]
    w = np.zeros((x.shape[1], n_classes))
    b = np.zeros(n_classes)
    for _ in range(PROBE_STEPS):
        logits = x @ w + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        g = (e / e.sum(axis=1, keepdims=True) - onehot) / len(x)
        w -= PROBE_LR * (x.T @ g)
        b -= PROBE_LR * g.sum(axis=0)

    def acc(z, labels):
        return float(np.mean(np.argmax(z @ w + b, axis=1) == labels))

    y_tgt = bundle["target_y_eval"].astype(np.int64)
    return {"source_probe_acc": (acc(src[hold], y[hold]), n_hold),
            "target_acc": (acc(tgt, y_tgt), len(tgt))}


def check_probe(what: str, ckpt, bundle,
                printed: dict[str, float]) -> list[str]:
    """The printed accuracies (four decimals) match within one sample."""
    problems = []
    for key, (mine, n) in probe_accs(ckpt, bundle).items():
        if key not in printed:
            problems.append(f"{what}: no {key} printed")
        elif abs(printed[key] - mine) > 1.0 / n + 5e-5:
            problems.append(f"{what}: printed {key} {printed[key]} but the "
                            f"independent probe gives {mine:.4f}")
    return problems


# ---------------------------------------------------------------------------
# Core-set, checkpoints, losses, embedding dumps
# ---------------------------------------------------------------------------

def check_coreset(path: Path, cfg: dict, n_pool: int,
                  adapt_records: list[dict]) -> list[str]:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    picked = [int(ln) for ln in lines[1:]]
    budget = cfg["budget_total"]
    problems = []
    if len(picked) != budget or len(set(picked)) != budget:
        problems.append(f"core-set holds {len(picked)} indices, "
                        f"{len(set(picked))} unique; budget is {budget}")
    if picked and not 0 <= min(picked) <= max(picked) < n_pool:
        problems.append(f"core-set index outside [0, {n_pool})")
    per_stage = budget // (cfg["n_cycles"] - 1)
    for r in adapt_records:
        if r["coreset_size"] != r["stage"] * per_stage:
            problems.append(f"stage {r['stage']} epoch {r['epoch']}: "
                            f"coreset_size {r['coreset_size']}, expected "
                            f"{r['stage'] * per_stage}")
            break
    return problems


def check_checkpoints(source: dict, target: dict) -> list[str]:
    """Finite tensors; the frozen prototypes survive adaptation bit for bit."""
    problems = [f"{what} tensor {name} is not finite"
                for what, ckpt in (("source", source), ("target", target))
                for name, t in ckpt.items() if not np.all(np.isfinite(t))]
    if source["prototypes.vectors"].tobytes() \
            != target["prototypes.vectors"].tobytes():
        problems.append("frozen prototypes changed during adaptation")
    return problems


def check_losses(cfg: dict, what: str, records: list[dict],
                 n_expected: int) -> list[str]:
    if len(records) != n_expected:
        return [f"{what}: {len(records)} epoch records, expected {n_expected}"]
    log_k = math.log(cfg["k_prototypes"])
    for r in records:
        at = f"{what} stage {r['stage']} epoch {r['epoch']}"
        if r["swap"] < 0 or r["dal"] < 0 or r["vat"] < -1e-6:
            return [f"{at}: negative loss component {r}"]
        if not 0.0 <= r["ent"] <= log_k:
            return [f"{at}: entropy {r['ent']} outside [0, log K]"]
        combined = r["swap"] + cfg["lambda1"] * r["dal"] \
            + cfg["lambda2"] * (r["ent"] + r["vat"])
        if abs(r["total"] - combined) > 1e-9 * max(1.0, abs(r["total"])):
            return [f"{at}: total {r['total']} != weighted sum {combined}"]
    return []


def check_embeddings(rdir: Path, n_stages: int, n_source: int,
                     n_target: int) -> list[str]:
    problems = []
    for stage in range(1, n_stages + 1):
        dump = read_tensors(rdir / f"embeds_stage{stage}.bin",
                            MAGIC_EMBEDDINGS)
        zs, zt = dump["source_embeddings"], dump["target_embeddings"]
        tags = dump["domain_tags"]
        expected_tags = np.r_[np.zeros(n_source), np.ones(n_target)]
        if len(zs) != n_source or len(zt) != n_target \
                or not np.array_equal(tags, expected_tags):
            problems.append(f"embeds_stage{stage}: {len(zs)}/{len(zt)} rows "
                            f"and {len(tags)} tags do not match the bundle")
            continue
        norms = np.linalg.norm(np.vstack([zs, zt]), axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > 1e-9:
            problems.append(f"embeds_stage{stage}: row norm off unit by "
                            f"{worst:.3e}")
    return problems
