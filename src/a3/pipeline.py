"""End-to-end orchestration: self-supervised source pretraining followed by
active adaptation cycles, plus linear-probe evaluation and metrics logging.

Stage 0 trains encoder and prototypes on the source domain with the swap
prediction loss alone. Each of the remaining n_cycles - 1 stages scores the
unlabeled target pool (mutual information from the dropout-sampled rotation
model plus cluster-distance diversity on current embeddings), moves the
best-ranked rows into the core-set, trains the target model on the
core-set with the combined objective, and retrains the rotation model on
rotations of the core-set.

Only the evaluator ever sees target labels: ``pretrain_source`` and
``adapt`` accept raw sample matrices and an optional accuracy callback, so
label arrays cannot reach the training path by construction.

All randomness flows from per-phase generators seeded by (config.seed,
phase index); identical configs reproduce checkpoints and metrics bitwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import active, alignment, data, models, ssl_swap
from . import autodiff as ad
from .autodiff import Tensor
from .container import MAGIC_EMBEDDINGS, write_tensor_map
from .errors import ConfigError, ContractError, FormatError, NumericError

# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

MULTISTEP_MILESTONES = (0.5, 0.75)
MULTISTEP_GAMMA = 0.1


class Sgd:
    """SGD with momentum and L2 weight decay over a named parameter dict.

    The learning rate follows a schedule over fractional progress through
    the phase: "cosine" decays smoothly to zero, "multistep" multiplies by
    MULTISTEP_GAMMA at each of MULTISTEP_MILESTONES. ``step`` consumes the
    gradients assigned by the last backward pass and clears them afterwards
    so stale gradients can never be applied twice.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, schedule: str,
                 momentum: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.schedule = schedule
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(t.data) for k, t in params.items()}

    def lr_at(self, progress: float) -> float:
        p = min(max(progress, 0.0), 1.0)
        if self.schedule == "cosine":
            return self.lr * 0.5 * (1.0 + math.cos(math.pi * p))
        drops = sum(1 for m in MULTISTEP_MILESTONES if p >= m)
        return self.lr * MULTISTEP_GAMMA ** drops

    def step(self, progress: float) -> None:
        lr = self.lr_at(progress)
        for name, t in self.params.items():
            if t.grad is None:
                continue
            g = self.weight_decay * t.data
            g += t.grad
            v = self.velocity[name]
            v *= self.momentum
            v += g
            t.data -= np.multiply(v, lr, out=g)
            t.grad = None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

LOSS_VARIANTS = ("consolidated", "dal_vat", "entropy")


def parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(
            f"encoder_widths must be comma-separated ints, got {text!r}") from exc
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"encoder_widths must be positive, got {text!r}")
    return widths


@dataclass(frozen=True)
class RunConfig:
    """Flat run settings; field names double as config-file keys."""

    # data generation
    n_classes: int = 10
    samples_per_class: int = 100
    image_side: int = 16
    intensity_scale: float = 0.7
    noise_sigma: float = 0.15
    translation_px: int = 0
    contrast_gamma: float = 1.25
    data_seed: int = 0
    # architecture
    encoder_widths: str = "128,128"
    embed_dim: int = 32
    k_prototypes: int = 16
    domain_hidden: int = 64
    dropout_rate: float = 0.25
    # swap prediction
    tau: float = 0.1
    sinkhorn_epsilon: float = 0.05
    sinkhorn_iters: int = 3
    # alignment objective
    lambda1: float = 0.25
    lambda2: float = 0.02
    grl_lambda: float = 1.0
    vat_xi: float = 1e-6
    vat_eps_radius: float = 1.0
    vat_power_iters: int = 1
    loss_variant: str = "consolidated"
    # acquisition
    acquisition: str = "hybrid"
    beta: float = 1.0
    t_passes: int = 10
    kmeans_k: int = 16
    kmeans_max_iter: int = 100
    budget_total: int = 900
    n_cycles: int = 4
    rescore_each_cycle: bool = True
    # training
    pretrain_epochs: int = 30
    target_epochs: int = 30
    rotation_epochs: int = 5
    batch_size: int = 64
    ssl_lr: float = 0.01
    target_lr: float = 0.01
    rotation_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-6
    # cold-started cycles retrain from the source checkpoint on the grown
    # core-set, which keeps runs insensitive to early-cycle batch composition
    warm_start: bool = False
    # frozen prototypes keep the source cluster anchors fixed while the
    # encoder adapts onto them
    freeze_prototypes: bool = True
    # bookkeeping
    seed: int = 0

    def __post_init__(self) -> None:
        parse_widths(self.encoder_widths)
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(
                    f"{f.name} must be finite, got {getattr(self, f.name)}")
        positive = ("n_classes", "samples_per_class", "image_side", "embed_dim",
                    "domain_hidden", "tau", "sinkhorn_epsilon", "sinkhorn_iters",
                    "beta", "kmeans_k", "kmeans_max_iter", "budget_total",
                    "ssl_lr", "target_lr", "rotation_lr",
                    "vat_xi", "vat_eps_radius", "vat_power_iters")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}")
        nonneg = ("intensity_scale", "noise_sigma", "translation_px",
                  "contrast_gamma", "lambda1", "lambda2", "grl_lambda",
                  "weight_decay", "pretrain_epochs", "target_epochs",
                  "rotation_epochs")
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if self.k_prototypes < 2:
            raise ConfigError(
                f"k_prototypes must be >= 2, got {self.k_prototypes}")
        # a smaller batch_size would take no swap-loss training step at all
        if self.batch_size < self.min_batch:
            raise ConfigError(
                f"batch_size must be >= max(2, k_prototypes) = "
                f"{self.min_batch}, got {self.batch_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(
                f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(
                f"momentum must lie in [0, 1), got {self.momentum}")
        if self.t_passes < 2:
            raise ConfigError(f"t_passes must be >= 2, got {self.t_passes}")
        if self.n_cycles < 2:
            raise ConfigError(
                f"n_cycles must be >= 2 (one pretraining stage plus at least "
                f"one adaptation stage), got {self.n_cycles}")
        if self.budget_total % (self.n_cycles - 1) != 0:
            raise ConfigError(
                f"budget_total {self.budget_total} must split evenly across "
                f"{self.n_cycles - 1} adaptation cycles")
        # the first cycle's core-set must fill one training step
        if self.budget_total // (self.n_cycles - 1) < self.min_batch:
            raise ConfigError(
                f"budget_total {self.budget_total} gives "
                f"{self.budget_total // (self.n_cycles - 1)} samples per "
                f"cycle, fewer than max(2, k_prototypes) = {self.min_batch}")
        if self.acquisition not in active.SCORING_MODES:
            raise ConfigError(
                f"unknown acquisition {self.acquisition!r}; expected one of "
                f"{', '.join(active.SCORING_MODES)}")
        if self.loss_variant not in LOSS_VARIANTS:
            raise ConfigError(
                f"unknown loss_variant {self.loss_variant!r}; expected one of "
                f"{', '.join(LOSS_VARIANTS)}")
        self.domain_spec()  # the data settings must make a valid dataset

    @property
    def min_batch(self) -> int:
        """Swap-loss training drops a minibatch of fewer rows than this."""
        return max(2, self.k_prototypes)

    @property
    def widths(self) -> tuple[int, ...]:
        return parse_widths(self.encoder_widths)

    @property
    def in_dim(self) -> int:
        return self.image_side * self.image_side

    def domain_spec(self) -> data.DomainSpec:
        shift = data.ShiftSpec(self.intensity_scale, self.noise_sigma,
                               self.translation_px, self.contrast_gamma)
        return data.DomainSpec(self.n_classes, self.samples_per_class,
                               self.image_side, shift, self.data_seed)


def canonical_text(config: RunConfig) -> str:
    """Sorted ``key = value`` rendering; doubles as a loadable config file."""
    lines = []
    for f in sorted(dataclasses.fields(config), key=lambda f: f.name):
        v = getattr(config, f.name)
        if isinstance(v, bool):
            rendered = "true" if v else "false"
        elif isinstance(v, float):
            rendered = repr(v)
        else:
            rendered = str(v)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


def config_fingerprint(config: RunConfig) -> int:
    return models.fnv1a64(canonical_text(config))


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment."""
    pairs: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(
                f"config line {ln}: expected 'key = value', got {raw!r}")
        pairs[key.strip()] = value.strip()
    return pairs


def _coerce(key: str, raw: str, kind: str):
    try:
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(
            f"config key {key!r}: cannot parse {raw!r} as {kind}") from exc


def config_from_pairs(pairs: dict[str, str],
                      base: RunConfig | None = None) -> RunConfig:
    """Apply string overrides to a base config; unknown keys are hard errors."""
    base = RunConfig() if base is None else base
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    updates = {}
    for key, raw in pairs.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        updates[key] = _coerce(key, raw, str(fields[key].type))
    return dataclasses.replace(base, **updates)


def load_config(path: str | Path,
                overrides: dict[str, str] | None = None) -> RunConfig:
    try:
        pairs = parse_config_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    if overrides:
        pairs.update(overrides)
    return config_from_pairs(pairs)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecord:
    """One training epoch: loss components, core-set size, probe accuracies.

    Accuracies are -1.0 when no evaluator was supplied.
    """

    stage: int
    epoch: int
    swap: float
    dal: float
    ent: float
    vat: float
    total: float
    coreset_size: int
    source_probe_acc: float
    target_acc: float


def write_metrics(path: str | Path, records: list[MetricsRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(dataclasses.asdict(r)) + "\n")


def read_metrics(path: str | Path) -> list[MetricsRecord]:
    """One record per nonblank line; a malformed line is a FormatError."""
    records = []
    for ln, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        at = f"metrics file {path} line {ln}"
        try:
            r = MetricsRecord(**json.loads(line))
        except (ValueError, TypeError, RecursionError) as exc:
            raise FormatError(f"{at}: {exc}") from exc
        for name, v in vars(r).items():
            if type(v) not in (int, float):
                raise FormatError(f"{at}: {name} = {v!r} is not a number")
        records.append(r)
    return records


# ---------------------------------------------------------------------------
# Linear-probe evaluation
# ---------------------------------------------------------------------------

PROBE_STEPS = 200
PROBE_LR = 0.1
EVAL_SPLIT_SEED = 1729
EVAL_HOLDOUT_FRAC = 0.2

Evaluator = Callable[[models.ModelParams], tuple[float, float]]


def _embed(enc: models.EncoderParams, x: np.ndarray) -> np.ndarray:
    with ad.no_grad():
        return models.encode(enc, x, normalize=True).data


def fit_probe(feats: np.ndarray, labels: np.ndarray, n_classes: int,
              steps: int = PROBE_STEPS, lr: float = PROBE_LR):
    """Multinomial logistic regression: zero init, full-batch descent."""
    x = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    w = np.zeros((x.shape[1], n_classes))
    b = np.zeros(n_classes)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(steps):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        p = e / e.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (x.T @ g)
        b -= lr * g.sum(axis=0)
    return w, b


def probe_accuracy(w: np.ndarray, b: np.ndarray, feats: np.ndarray,
                   labels: np.ndarray) -> float:
    pred = np.argmax(np.asarray(feats) @ w + b, axis=1)
    return float(np.mean(pred == np.asarray(labels, dtype=np.int64)))


def evaluate(ckpt: models.Checkpoint | models.ModelParams,
             bundle: data.DatasetBundle) -> dict[str, float]:
    """Probe accuracies of a model on a bundle.

    Fits the probe on frozen encoder embeddings of a fixed 80% source
    split, then scores the held-out 20% and the full target set. This is
    the only routine in the package that reads target_y_eval.
    """
    mp = ckpt.models() if isinstance(ckpt, models.Checkpoint) else ckpt
    src_z = _embed(mp.encoder, bundle.source_x)
    tgt_z = _embed(mp.encoder, bundle.target_x)
    n_classes = int(np.max(bundle.source_y)) + 1
    perm = np.random.default_rng(EVAL_SPLIT_SEED).permutation(src_z.shape[0])
    n_hold = max(1, int(round(src_z.shape[0] * EVAL_HOLDOUT_FRAC)))
    hold, fit = perm[:n_hold], perm[n_hold:]
    w, b = fit_probe(src_z[fit], bundle.source_y[fit], n_classes)
    return {
        "source_probe_acc": probe_accuracy(w, b, src_z[hold],
                                           bundle.source_y[hold]),
        "target_acc": probe_accuracy(w, b, tgt_z, bundle.target_y_eval),
    }


def make_evaluator(bundle: data.DatasetBundle) -> Evaluator:
    def evaluator(mp: models.ModelParams) -> tuple[float, float]:
        accs = evaluate(mp, bundle)
        return accs["source_probe_acc"], accs["target_acc"]
    return evaluator


# ---------------------------------------------------------------------------
# Shared training helpers
# ---------------------------------------------------------------------------

PHASE_PRETRAIN = 0
PHASE_ADAPT = 1


def _phase_seeder(seed: int, phase: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, phase]))


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 63))


def _minibatches(n: int, batch_size: int, rng: np.random.Generator,
                 min_size: int) -> list[np.ndarray]:
    """Shuffled index chunks; a trailing chunk below min_size is dropped."""
    order = rng.permutation(n)
    chunks = []
    for start in range(0, n, batch_size):
        chunk = order[start:start + batch_size]
        if chunk.shape[0] >= min_size:
            chunks.append(chunk)
    return chunks


def _steps_per_epoch(n: int, batch_size: int, min_size: int) -> int:
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= min_size else 0)


def _check_input_matrix(x: np.ndarray, config: RunConfig, what: str) -> None:
    if x.ndim != 2:
        raise ContractError(f"{what} must be a 2-D sample matrix, got {x.shape}")
    # every phase must take at least one training step per epoch
    if x.shape[0] < config.min_batch:
        raise ConfigError(
            f"{what} has {x.shape[0]} rows, fewer than the "
            f"max(2, k_prototypes) = {config.min_batch} of one training step")
    if x.shape[1] != config.in_dim:
        raise ConfigError(
            f"{what} has {x.shape[1]} features but the config expects "
            f"image_side**2 = {config.in_dim}")


def check_target_pool(config: RunConfig, target_x: np.ndarray) -> None:
    """Refuse a target pool that ``adapt`` cannot run on: not a sample
    matrix of the config's width, too few rows for one training step, or
    fewer rows than the total budget."""
    _check_input_matrix(target_x, config, "target_x")
    if config.budget_total > target_x.shape[0]:
        raise ConfigError(
            f"budget_total {config.budget_total} exceeds target pool size "
            f"{target_x.shape[0]}")


def _init_models(config: RunConfig, rng: np.random.Generator,
                 in_dim: int) -> models.ModelParams:
    enc = models.init_encoder(rng, in_dim, config.widths, config.embed_dim)
    return models.ModelParams(
        encoder=enc,
        prototypes=models.init_prototypes(rng, config.k_prototypes,
                                          config.embed_dim),
        domain=models.init_domain_classifier(rng, config.embed_dim,
                                             config.domain_hidden),
        rotation=models.init_rotation_classifier(rng, enc,
                                                 config.dropout_rate),
    )


def _check_compat(mp: models.ModelParams, config: RunConfig,
                  x: np.ndarray) -> None:
    enc = mp.encoder
    if enc.in_dim != x.shape[1]:
        raise ConfigError(
            f"checkpoint encoder expects {enc.in_dim} features, data has "
            f"{x.shape[1]}")
    if enc.embed_dim != config.embed_dim:
        raise ConfigError(
            f"checkpoint embed_dim {enc.embed_dim} != config embed_dim "
            f"{config.embed_dim}")
    if mp.prototypes.vectors.shape[0] != config.k_prototypes:
        raise ConfigError(
            f"checkpoint has {mp.prototypes.vectors.shape[0]} prototypes, "
            f"config expects {config.k_prototypes}")
    widths = tuple(w.shape[1] for w, _ in enc.layers)
    if widths != config.widths:
        raise ConfigError(
            f"checkpoint encoder widths {widths} != config widths "
            f"{config.widths}")


def _diverged(exc: NumericError, phase: str, stage: int, epoch: int, step: int,
              last_good: models.Checkpoint | None = None) -> NumericError:
    """Name the loop position in ``exc.where`` and the message unless an
    inner loop did, and attach last_good unless one is attached."""
    if not hasattr(exc, "where"):
        exc.where = (phase, stage, epoch, step)
        exc.args = (f"{phase} diverged at stage {stage}, epoch {epoch}, "
                    f"step {step}: {exc}",)
    if last_good is not None and not hasattr(exc, "last_good"):
        exc.last_good = last_good
    return exc


def _finite_checkpoint(mp: models.ModelParams, fingerprint: int,
                       stage: int) -> models.Checkpoint:
    """The checkpoint of mp; a non-finite parameter is a NumericError, so
    no such checkpoint is ever kept as the last good one or returned."""
    ckpt = models.Checkpoint.of(mp, fingerprint, stage)
    bad = models.first_non_finite(ckpt.tensors)
    if bad is not None:
        raise NumericError(
            f"non-finite parameter {bad[0]} at flat index {bad[1]}")
    return ckpt


def _unit_embeddings(enc: models.EncoderParams, x) -> Tensor:
    """The unit-norm embeddings that training scores against the
    prototypes. A ReLU layer can map a row to exactly zero, which has no
    direction to normalize; that is a NumericError naming the row."""
    z = models.encode(enc, x, normalize=True)
    norms = np.linalg.norm(z.data, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-4)
    if bad.size:
        raise NumericError(
            f"the encoder maps minibatch row {bad[0]} to a zero embedding")
    return z


def _swap_term(config: RunConfig, mp: models.ModelParams, va: np.ndarray,
               vb: np.ndarray) -> Tensor:
    """Swap-prediction loss between two augmented views of a minibatch."""
    z_a = _unit_embeddings(mp.encoder, va)
    z_b = _unit_embeddings(mp.encoder, vb)
    return ssl_swap.swap_loss(z_a, z_b, mp.prototypes, config.tau,
                              config.sinkhorn_epsilon, config.sinkhorn_iters)


def _stream_two_views(x: np.ndarray, plan: list[tuple[np.ndarray, int]]):
    """Yield ``data.augment_two_views(x[chunk], seed)`` for each (chunk,
    seed) of the plan, in order, computed by one forked helper process.

    The helper writes each view's raw float64 bytes to a pipe, whose
    capacity keeps it about one step ahead of the consumer. It ends only
    through os._exit, so it never runs the caller's code, exit handlers or
    stdio flushes. Closing the generator kills the helper, and every way
    out of the generator reaps it.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the helper
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe, np.errstate(all="ignore"):
                for chunk, seed in plan:
                    for view in data.augment_two_views(x[chunk], seed):
                        pipe.write(view)
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    status = None
    try:
        with open(r, "rb") as pipe:
            for chunk, _ in plan:
                views = (np.empty((chunk.shape[0], x.shape[1])),
                         np.empty((chunk.shape[0], x.shape[1])))
                # a buffered read fills its target unless the stream ends
                if any(pipe.readinto(v) < v.nbytes for v in views):
                    status = os.waitpid(pid, 0)[1]
                    raise ChildProcessError(
                        f"the augmentation helper process ended early with "
                        f"exit status {os.waitstatus_to_exitcode(status)}")
                yield views
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Stage 0: source pretraining
# ---------------------------------------------------------------------------

def pretrain_source(config: RunConfig, source_x: np.ndarray,
                    evaluator: Evaluator | None = None
                    ) -> tuple[models.Checkpoint, list[MetricsRecord]]:
    """Swap-prediction pretraining of encoder and prototypes on source data.

    Returns the final checkpoint (stage 0) and one MetricsRecord per epoch.
    On a non-finite loss or parameter the raised NumericError carries the
    checkpoint of the last completed epoch in its ``last_good`` attribute.
    """
    x = np.asarray(source_x, dtype=np.float64)
    _check_input_matrix(x, config, "source_x")
    fp = config_fingerprint(config)
    seeder = _phase_seeder(config.seed, PHASE_PRETRAIN)
    mp = _init_models(config, np.random.default_rng(_draw_seed(seeder)),
                      x.shape[1])
    opt = Sgd(models.param_group(mp, "encoder.", "prototypes."),
              config.ssl_lr, "cosine", config.momentum, config.weight_decay)
    per_epoch = _steps_per_epoch(x.shape[0], config.batch_size,
                                 config.min_batch)
    total = config.pretrain_epochs * per_epoch
    # Every draw of the loop, in its order: per epoch the minibatches, then
    # one augmentation seed per minibatch. The views depend on nothing else,
    # so a helper process computes them while the model trains.
    plan = [(chunk, _draw_seed(seeder))
            for _ in range(config.pretrain_epochs)
            for chunk in _minibatches(x.shape[0], config.batch_size, seeder,
                                      config.min_batch)]
    records: list[MetricsRecord] = []
    last_good = models.Checkpoint.of(mp, fp, 0)
    step = 0
    try:
        with contextlib.closing(_stream_two_views(x, plan)) as views:
            for epoch in range(config.pretrain_epochs):
                loss_sum = 0.0
                for va, vb in itertools.islice(views, per_epoch):
                    loss = _swap_term(config, mp, va, vb)
                    val = loss.item()
                    if not math.isfinite(val):
                        raise NumericError(f"non-finite loss {val}")
                    ad.backward(loss)
                    opt.step(step / total)
                    ssl_swap.prototype_normalize(mp.prototypes)
                    loss_sum += val
                    step += 1
                ckpt = _finite_checkpoint(mp, fp, 0)
                mean = loss_sum / per_epoch
                s_acc, t_acc = evaluator(mp) if evaluator else (-1.0, -1.0)
                records.append(MetricsRecord(
                    stage=0, epoch=epoch, swap=mean, dal=0.0, ent=0.0,
                    vat=0.0, total=mean, coreset_size=0,
                    source_probe_acc=s_acc, target_acc=t_acc))
                last_good = ckpt
    except NumericError as exc:
        raise _diverged(exc, "pretraining", 0, epoch, step, last_good)
    return last_good, records


# ---------------------------------------------------------------------------
# Rotation-model training
# ---------------------------------------------------------------------------

def _train_rotation(config: RunConfig, mp: models.ModelParams,
                    pool_x: np.ndarray, seeder: np.random.Generator,
                    stage: int) -> None:
    """Cross-entropy training of the rotation model on every pool image
    under each of the four rotations; each minibatch gathers its rotated
    rows from the pool."""
    rot = mp.rotation
    rows, labels = active.build_rotation_pool(pool_x, _draw_seed(seeder))
    mask_rng = np.random.default_rng(_draw_seed(seeder))
    opt = Sgd(models.param_group(mp, "rotation."), config.rotation_lr,
              "multistep", config.momentum, config.weight_decay)
    n = labels.shape[0]
    total = config.rotation_epochs * _steps_per_epoch(n, config.batch_size, 2)
    step = 0
    for epoch in range(config.rotation_epochs):
        for chunk in _minibatches(n, config.batch_size, seeder, 2):
            mask = models.dropout_mask(
                mask_rng, (chunk.shape[0], rot.trunk.embed_dim),
                rot.dropout_rate)
            probs = models.rotation_predict(rot, rows(chunk), mask=mask)
            onehot = Tensor(np.eye(4)[labels[chunk]])
            picked = ad.tsum(ad.mul(ad.log(ad.clamp(
                probs, alignment.PROB_FLOOR, 1.0)), onehot), axis=1)
            loss = ad.neg(ad.tmean(picked))
            if not math.isfinite(loss.item()):
                raise _diverged(NumericError(f"non-finite loss {loss.item()}"),
                                "rotation training", stage, epoch, step)
            ad.backward(loss)
            opt.step(step / total)
            step += 1


# ---------------------------------------------------------------------------
# Pool scoring
# ---------------------------------------------------------------------------

def _score_indices(config: RunConfig, mp: models.ModelParams,
                   x_t: np.ndarray, indices: list[int],
                   seeder: np.random.Generator) -> np.ndarray:
    """The given pool indices ranked best first under config.acquisition."""
    idx = np.asarray(indices, dtype=np.int64)
    xs = x_t[idx]
    seed_mc = _draw_seed(seeder)
    seed_kmeans = _draw_seed(seeder)
    seed_mode = _draw_seed(seeder)
    stack = active.mc_dropout_probs(mp.rotation, xs, config.t_passes, seed_mc)
    unc = [active.bald_mutual_info(stack[i]) for i in range(idx.shape[0])]
    emb = _embed(mp.encoder, xs)
    k = min(config.kmeans_k, idx.shape[0])
    centroids, _, _ = active.kmeans(emb, k, seed_kmeans,
                                    config.kmeans_max_iter)
    div = active.diversity_distances(emb, centroids)
    return active.rank_pool(idx, unc, div, config.acquisition, config.beta,
                            seed_mode)


# ---------------------------------------------------------------------------
# Embedding dumps
# ---------------------------------------------------------------------------

def _finite_target_embeddings(enc: models.EncoderParams,
                              target_x: np.ndarray) -> np.ndarray:
    """Embeddings of the target pool. Finite but huge weights can overflow
    the forward pass, so a non-finite embedding is a NumericError."""
    zt = _embed(enc, target_x)
    bad = np.flatnonzero(~np.all(np.isfinite(zt), axis=1))
    if bad.size:
        raise NumericError(f"non-finite embedding of target sample {bad[0]}")
    return zt


def dump_embeddings(path: str | Path, enc: models.EncoderParams,
                    source_x: np.ndarray | None,
                    target_z: np.ndarray) -> None:
    """Write the source embeddings under enc and the given target
    embeddings, with 0/1 domain tags."""
    if source_x is not None and len(source_x):
        zs = _embed(enc, np.asarray(source_x, dtype=np.float64))
    else:
        zs = np.zeros((0, enc.embed_dim))
    tags = np.concatenate([np.zeros(zs.shape[0]), np.ones(target_z.shape[0])])
    with open(path, "wb") as f:
        f.write(MAGIC_EMBEDDINGS)
        write_tensor_map(f, {"source_embeddings": zs,
                             "target_embeddings": target_z,
                             "domain_tags": tags})


# ---------------------------------------------------------------------------
# Active adaptation
# ---------------------------------------------------------------------------

def _train_target(config: RunConfig, tgt: models.ModelParams,
                  src: models.ModelParams, core_x: np.ndarray,
                  seeder: np.random.Generator, stage: int,
                  evaluator: Evaluator | None) -> list[MetricsRecord]:
    """Trains the target model on core-set minibatches with the combined
    objective; returns one MetricsRecord per epoch."""
    use_dal = config.loss_variant in ("consolidated", "dal_vat")
    use_ent = config.loss_variant in ("consolidated", "entropy")
    trained = ("encoder.", "domain.") if config.freeze_prototypes \
        else ("encoder.", "prototypes.", "domain.")
    # the source model is frozen: embed the core-set once per cycle
    z_src = _embed(src.encoder, core_x) if use_dal else None
    opt = Sgd(models.param_group(tgt, *trained), config.target_lr,
              "cosine", config.momentum, config.weight_decay)
    # The schedule restarts each cycle so the growing core-set always gets a
    # full annealing sweep; the last (largest) cycle dominates.
    per_epoch = _steps_per_epoch(core_x.shape[0], config.batch_size,
                                 config.min_batch)
    total = config.target_epochs * per_epoch

    def fn(x: Tensor) -> Tensor:  # the target model's prototype distribution
        z = _unit_embeddings(tgt.encoder, x)
        return ad.softmax(models.prototype_scores(z, tgt.prototypes,
                                                  config.tau), axis=1)

    records: list[MetricsRecord] = []
    epoch = step = 0
    try:
        for epoch in range(config.target_epochs):
            sums = dict.fromkeys(("swap", "dal", "ent", "vat", "total"), 0.0)
            for chunk in _minibatches(core_x.shape[0], config.batch_size,
                                      seeder, config.min_batch):
                xb = core_x[chunk]
                swap = _swap_term(config, tgt, *data.augment_two_views(
                    xb, _draw_seed(seeder)))
                vat_seed = _draw_seed(seeder)
                ent = vat = dal = Tensor(0.0)
                # the one clean pass of the step: entropy differentiates it,
                # VAT holds its values fixed
                probs = fn(Tensor(xb))
                if use_ent:
                    ent = alignment.entropy_loss(probs)
                if use_dal:  # VAT runs with DAL
                    r_adv = alignment.vat_perturbation(
                        fn, xb, probs.data, config.vat_xi,
                        config.vat_eps_radius, config.vat_power_iters,
                        vat_seed)
                    vat = alignment.vat_loss(fn, xb, probs.data, r_adv)
                    z_tgt = models.encode(tgt.encoder, xb, normalize=True)
                    dal = alignment.dal_loss(tgt.domain, Tensor(z_src[chunk]),
                                             z_tgt, config.grl_lambda)
                loss = alignment.total_loss(swap, dal, ent, vat,
                                            config.lambda1, config.lambda2)
                ad.backward(loss)
                opt.step(step / total)
                if not config.freeze_prototypes:
                    ssl_swap.prototype_normalize(tgt.prototypes)
                for name, t in (("swap", swap), ("dal", dal), ("ent", ent),
                                ("vat", vat), ("total", loss)):
                    sums[name] += t.item()
                step += 1
            s_acc, t_acc = evaluator(tgt) if evaluator else (-1.0, -1.0)
            records.append(MetricsRecord(
                stage=stage, epoch=epoch,
                **{name: v / per_epoch for name, v in sums.items()},
                coreset_size=core_x.shape[0], source_probe_acc=s_acc,
                target_acc=t_acc))
    except NumericError as exc:
        raise _diverged(exc, "adaptation", stage, epoch, step)
    return records


def adapt(config: RunConfig, source_ckpt: models.Checkpoint,
          target_x: np.ndarray, source_x: np.ndarray | None = None,
          evaluator: Evaluator | None = None,
          out_dir: str | Path | None = None
          ) -> tuple[models.Checkpoint, active.CoreSet, list[MetricsRecord]]:
    """Runs the n_cycles - 1 active adaptation stages from a source checkpoint.

    Each cycle acquires (ranks the remaining pool, splits the ranking into
    batches and moves the first k of its batch into the core-set), trains
    the target model on the core-set, retrains the rotation model on
    core-set rotations, and keeps the cycle's model once it embeds the
    target pool finitely. The source model stays frozen throughout and
    only supplies detached embeddings to the domain adversarial loss.
    source_x is optional and only enriches the per-cycle embedding dumps.

    Returns the final checkpoint, the finished core-set, and per-epoch
    metrics for every adaptation stage.
    """
    x_t = np.asarray(target_x, dtype=np.float64)
    check_target_pool(config, x_t)
    n_stages = config.n_cycles - 1
    src = source_ckpt.models()
    _check_compat(src, config, x_t)
    fp = config_fingerprint(config)
    seeder = _phase_seeder(config.seed, PHASE_ADAPT)
    tgt = source_ckpt.models()
    tgt.rotation = models.init_rotation_classifier(
        np.random.default_rng(_draw_seed(seeder)), src.encoder,
        config.dropout_rate)
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    per_cycle = config.budget_total // n_stages
    core = active.CoreSet([], config.budget_total, 0)
    remaining = list(range(x_t.shape[0]))
    records: list[MetricsRecord] = []
    last_good: models.Checkpoint | None = None
    stage = epoch = step = 0
    try:
        last_good = _finite_checkpoint(tgt, fp, 0)
        # Initial pretext fit on the full pool so stage-0 uncertainty scores
        # come from a model that has actually seen the target domain.
        _train_rotation(config, tgt, x_t, seeder, stage)

        for cyc in range(n_stages):
            stage, epoch, step = cyc + 1, 0, 0
            if cyc > 0 and not config.warm_start:
                tgt = dataclasses.replace(source_ckpt.models(),
                                          rotation=tgt.rotation)

            # 1. acquire: a static partition is ranked once, on the first
            # cycle, and hands out its batches in order
            if config.rescore_each_cycle or cyc == 0:
                ranked = _score_indices(config, tgt, x_t, remaining, seeder)
                batches = np.array_split(ranked, n_stages - cyc)
            batch = batches[0 if config.rescore_each_cycle else cyc]
            core = active.CoreSet(core.selected + batch[:per_cycle].tolist(),
                                  config.budget_total, stage)
            selected = set(core.selected)
            remaining = [i for i in remaining if i not in selected]
            core_x = x_t[np.asarray(core.selected, dtype=np.int64)]

            # 2. train the target model on the accumulated core-set; a later
            # failure is placed after the cycle's last step
            records += _train_target(config, tgt, src, core_x, seeder, stage,
                                     evaluator)
            epoch = max(config.target_epochs - 1, 0)
            step = config.target_epochs * _steps_per_epoch(
                core_x.shape[0], config.batch_size, config.min_batch)

            # 3. retrain the rotation model on the core-set
            _train_rotation(config, tgt, core_x, seeder, stage)

            # 4. keep: the cycle's model is the last good one only once it
            # embeds the target pool finitely
            ckpt = _finite_checkpoint(tgt, fp, stage)
            z_t = _finite_target_embeddings(tgt.encoder, x_t)
            if out_dir is not None:
                dump_embeddings(Path(out_dir) / f"embeds_stage{stage}.bin",
                                tgt.encoder, source_x, z_t)
            last_good = ckpt
    except NumericError as exc:
        raise _diverged(exc, "adaptation", stage, epoch, step, last_good)
    return last_good, core, records
