"""Parameter containers and forward passes for all networks in the pipeline.

Four parameter groups: the encoder (MLP trunk plus a linear projection into
the embedding space where prototypes live), the prototype matrix, a binary
domain classifier, and a 4-way rotation classifier whose MC-dropout
posterior drives acquisition. Checkpoints serialize every tensor by name
together with a config fingerprint and the pipeline stage index.

Every dense weight (the `.weight` and `.projection` tensors) is held in
memory as (d_in, d_out), the layout its product ``h @ w`` reads, and is
written to checkpoints as (d_out, d_in); the transpose happens only in
``to_tensor_map`` and ``from_tensor_map``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .container import MAGIC_CHECKPOINT, check_magic, read_tensor_map, write_tensor_map
from .errors import ConfigError, ContractError, FormatError, ShapeError


@dataclass
class EncoderParams:
    """MLP layers (weight d_in x d_out, bias d_out) plus a d x p projection.

    Weights are held (d_in, d_out); checkpoints store them (d_out, d_in)."""

    layers: list[tuple[Tensor, Tensor]]
    projection: Tensor

    def __post_init__(self) -> None:
        for i in range(len(self.layers) - 1):
            d_out = self.layers[i][0].shape[1]
            d_in_next = self.layers[i + 1][0].shape[0]
            if d_out != d_in_next:
                raise ShapeError(
                    f"encoder layer {i} outputs {d_out} but layer {i + 1} "
                    f"expects {d_in_next}")
        if self.projection.shape[0] != self.layers[-1][0].shape[1]:
            raise ShapeError(
                f"projection expects {self.projection.shape[0]} inputs but the "
                f"last layer outputs {self.layers[-1][0].shape[1]}")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.projection.shape[1]


@dataclass
class Prototypes:
    """K unit-norm cluster vectors, rows of a K x p matrix."""

    vectors: Tensor


@dataclass
class DomainClassifierParams:
    """Two dense layers ending in a single-logit head."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class RotationClassifierParams:
    """Encoder-shaped trunk plus a 4-way head; dropout on the trunk output."""

    trunk: EncoderParams
    head_w: Tensor
    head_b: Tensor
    dropout_rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(
                f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


@dataclass
class ModelParams:
    """Everything trainable: encoder, prototypes, domain and rotation heads."""

    encoder: EncoderParams
    prototypes: Prototypes
    domain: DomainClassifierParams
    rotation: RotationClassifierParams


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _init_weight(rng: np.random.Generator, std: float, d_in: int,
                 d_out: int) -> Tensor:
    """A trainable d_in x d_out weight of N(0, std^2) values, drawn in the
    checkpoint layout (d_out, d_in)."""
    return Tensor(rng.normal(0.0, std, size=(d_out, d_in)).T.copy(),
                  requires_grad=True)


def init_encoder(rng: np.random.Generator, in_dim: int,
                 widths: tuple[int, ...], embed_dim: int) -> EncoderParams:
    layers = []
    prev = in_dim
    for w in widths:
        layers.append((_init_weight(rng, np.sqrt(2.0 / prev), prev, w),
                       Tensor(np.zeros(w), requires_grad=True)))
        prev = w
    return EncoderParams(layers, _init_weight(rng, 1.0 / np.sqrt(prev), prev,
                                              embed_dim))


def init_prototypes(rng: np.random.Generator, k: int, embed_dim: int) -> Prototypes:
    c = rng.normal(size=(k, embed_dim))
    c /= np.linalg.norm(c, axis=1, keepdims=True) + ad.NORM_EPS
    return Prototypes(Tensor(c, requires_grad=True))


def init_domain_classifier(rng: np.random.Generator, embed_dim: int,
                           hidden: int) -> DomainClassifierParams:
    return DomainClassifierParams(
        w1=_init_weight(rng, np.sqrt(2.0 / embed_dim), embed_dim, hidden),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=_init_weight(rng, 1.0 / np.sqrt(hidden), hidden, 1),
        b2=Tensor(np.zeros(1), requires_grad=True),
    )


def init_rotation_classifier(rng: np.random.Generator, trunk: EncoderParams,
                             dropout_rate: float) -> RotationClassifierParams:
    """Head is fresh; the trunk is a deep copy of the given encoder."""
    p = trunk.embed_dim
    return RotationClassifierParams(
        trunk=clone_encoder(trunk),
        head_w=_init_weight(rng, 1.0 / np.sqrt(p), p, 4),
        head_b=Tensor(np.zeros(4), requires_grad=True),
        dropout_rate=dropout_rate,
    )


def clone_encoder(enc: EncoderParams) -> EncoderParams:
    layers = [(Tensor(w.data.copy(), requires_grad=True),
               Tensor(b.data.copy(), requires_grad=True)) for w, b in enc.layers]
    return EncoderParams(layers, Tensor(enc.projection.data.copy(),
                                        requires_grad=True))


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def encode(params: EncoderParams, batch, normalize: bool = False) -> Tensor:
    """Map a B x d_in batch to B x p embeddings, optionally unit-normalized."""
    x = batch if isinstance(batch, Tensor) else Tensor(batch)
    if x.data.ndim != 2 or x.shape[1] != params.in_dim:
        raise ShapeError(
            f"encode: batch shape {x.shape} does not match input width "
            f"{params.in_dim}")
    h = x
    for w, b in params.layers:
        h = ad.dense(h, w, b)
    z = ad.matmul(h, params.projection)
    if normalize:
        z = ad.l2_normalize(z, axis=1)
    return z


def prototype_scores(z: Tensor, protos: Prototypes, tau: float) -> Tensor:
    """Scaled prototype similarities: scores[i][k] = dot(z_i, c_k) / tau.

    Row norms are checked loosely (1e-4) so numerical probes near the unit
    sphere remain valid inputs.
    """
    if tau <= 0:
        raise ConfigError(f"temperature tau must be positive, got {tau}")
    norms = np.linalg.norm(z.data, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-4:
        raise ContractError("prototype_scores expects unit-norm embedding rows")
    return ad.mul(ad.matmul(z, ad.transpose(protos.vectors)), 1.0 / tau)


def domain_prob(dp: DomainClassifierParams, z: Tensor) -> Tensor:
    """Probability that each embedding row came from the source model."""
    h = ad.dense(z, dp.w1, dp.b1)
    logit = ad.add_bias(ad.matmul(h, dp.w2), dp.b2)
    return ad.reshape(ad.sigmoid(logit), (z.shape[0],))


def rotation_predict(rp: RotationClassifierParams, x,
                     mask: np.ndarray | None = None) -> Tensor:
    """4-way rotation probabilities; mask=None means evaluation mode."""
    return rotation_head(rp, encode(rp.trunk, x), mask)


def rotation_head(rp: RotationClassifierParams, feats: Tensor,
                  mask: np.ndarray | None = None) -> Tensor:
    """Dropout and the 4-way head applied to trunk features `feats`."""
    if mask is not None:
        feats = ad.dropout(feats, mask)
    logits = ad.add_bias(ad.matmul(feats, rp.head_w), rp.head_b)
    return ad.softmax(logits, axis=1)


def dropout_mask(rng: np.random.Generator, shape: tuple[int, ...],
                 rate: float) -> np.ndarray:
    """Inverted-dropout mask: kept units scaled by 1 / keep probability.

    Rate zero draws nothing from rng and returns ones, so the masked
    forward pass equals evaluation mode exactly.
    """
    if rate == 0.0:
        return np.ones(shape)
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


# ---------------------------------------------------------------------------
# Named-tensor maps and checkpoints
# ---------------------------------------------------------------------------

def encoder_tensor_map(prefix: str, enc: EncoderParams) -> dict[str, Tensor]:
    out: dict[str, Tensor] = {}
    for i, (w, b) in enumerate(enc.layers):
        out[f"{prefix}.layer{i}.weight"] = w
        out[f"{prefix}.layer{i}.bias"] = b
    out[f"{prefix}.projection"] = enc.projection
    return out


def named_tensors(mp: ModelParams) -> dict[str, Tensor]:
    """Stable name -> Tensor map over every trainable tensor."""
    out = encoder_tensor_map("encoder", mp.encoder)
    out["prototypes.vectors"] = mp.prototypes.vectors
    out["domain.fc.weight"] = mp.domain.w1
    out["domain.fc.bias"] = mp.domain.b1
    out["domain.logit.weight"] = mp.domain.w2
    out["domain.logit.bias"] = mp.domain.b2
    out.update(encoder_tensor_map("rotation.trunk", mp.rotation.trunk))
    out["rotation.head.weight"] = mp.rotation.head_w
    out["rotation.head.bias"] = mp.rotation.head_b
    return out


def param_group(mp: ModelParams, *prefixes: str) -> dict[str, Tensor]:
    """The named tensors whose names start with one of the prefixes.

    Optimizer groups are built from it, so tensor names are spelled only in
    this module."""
    return {name: t for name, t in named_tensors(mp).items()
            if name.startswith(prefixes)}


def _flip(name: str, a: np.ndarray) -> np.ndarray:
    """A fresh copy of a, transposed if name is a dense weight: the memory
    layout (d_in, d_out) and the checkpoint layout (d_out, d_in) are each
    the other's transpose."""
    return a.T.copy() if name.endswith((".weight", ".projection")) else a.copy()


def to_tensor_map(mp: ModelParams) -> dict[str, np.ndarray]:
    """Every tensor by name, dense weights in the checkpoint layout."""
    arrays = {name: _flip(name, t.data) for name, t in named_tensors(mp).items()}
    arrays["rotation.dropout_rate"] = np.asarray(mp.rotation.dropout_rate)
    return arrays


def _read(arrays: dict[str, np.ndarray], name: str,
          *shape: int | str) -> Tensor:
    """The named tensor as a fresh trainable copy, so rebuilt models never
    alias the checkpoint arrays; a dense weight comes back in the memory
    layout. shape is the checkpoint layout: an int in it is a required
    extent, a str names an extent that may take any value."""
    if name not in arrays:
        raise FormatError(f"checkpoint is missing tensor {name!r}")
    a = arrays[name]
    if a.ndim != len(shape) or any(isinstance(want, int) and got != want
                                   for got, want in zip(a.shape, shape)):
        expected = "(" + ", ".join(map(str, shape)) \
            + ("," if len(shape) == 1 else "") + ")"
        raise FormatError(f"checkpoint tensor {name!r} has shape {a.shape}, "
                          f"expected {expected}")
    return Tensor(_flip(name, a), requires_grad=True)


def _read_encoder(prefix: str, arrays: dict[str, np.ndarray],
                  in_dim: int | str) -> EncoderParams:
    n_layers = 1
    while f"{prefix}.layer{n_layers}.weight" in arrays:
        n_layers += 1
    layers = []
    d_in = in_dim
    for i in range(n_layers):
        w = _read(arrays, f"{prefix}.layer{i}.weight", "width", d_in)
        b = _read(arrays, f"{prefix}.layer{i}.bias", w.shape[1])
        layers.append((w, b))
        d_in = w.shape[1]
    return EncoderParams(layers, _read(arrays, f"{prefix}.projection",
                                       "embed_dim", d_in))


def from_tensor_map(arrays: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild the models; a missing tensor, or one whose shape disagrees
    with the encoder it belongs with, is a FormatError naming it."""
    enc = _read_encoder("encoder", arrays, "in_dim")
    p = enc.embed_dim
    w1 = _read(arrays, "domain.fc.weight", "hidden", p)
    hidden = w1.shape[1]
    trunk = _read_encoder("rotation.trunk", arrays, enc.in_dim)
    return ModelParams(
        encoder=enc,
        prototypes=Prototypes(_read(arrays, "prototypes.vectors", "k", p)),
        domain=DomainClassifierParams(
            w1=w1, b1=_read(arrays, "domain.fc.bias", hidden),
            w2=_read(arrays, "domain.logit.weight", 1, hidden),
            b2=_read(arrays, "domain.logit.bias", 1)),
        rotation=RotationClassifierParams(
            trunk=trunk,
            head_w=_read(arrays, "rotation.head.weight", 4, trunk.embed_dim),
            head_b=_read(arrays, "rotation.head.bias", 4),
            dropout_rate=_read(arrays, "rotation.dropout_rate").item()),
    )


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of UTF-8 text."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class Checkpoint:
    """Named tensor map plus a config fingerprint and pipeline stage index."""

    tensors: dict[str, np.ndarray]
    fingerprint: int = 0
    stage: int = 0

    def models(self) -> ModelParams:
        return from_tensor_map(self.tensors)

    @classmethod
    def of(cls, mp: ModelParams, fingerprint: int = 0, stage: int = 0) -> "Checkpoint":
        return cls(to_tensor_map(mp), fingerprint, stage)


def first_non_finite(tensors: dict[str, np.ndarray]) -> tuple[str, int] | None:
    """Name and flat index of the first non-finite value, or None."""
    for name, a in tensors.items():
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            return name, int(bad[0])
    return None


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    import struct

    with open(path, "wb") as f:
        f.write(MAGIC_CHECKPOINT)
        write_tensor_map(f, ckpt.tensors)
        f.write(struct.pack("<QQ", ckpt.fingerprint, ckpt.stage))


def load_checkpoint(path: str | Path) -> Checkpoint:
    import struct

    with open(path, "rb") as f:
        check_magic(f, MAGIC_CHECKPOINT)
        tensors = read_tensor_map(f)
        trailer = f.read(16)
        if len(trailer) != 16:
            raise FormatError(
                f"truncated checkpoint trailer at byte offset {f.tell() - len(trailer)}")
        fingerprint, stage = struct.unpack("<QQ", trailer)
    bad = first_non_finite(tensors)
    if bad is not None:
        raise FormatError(f"checkpoint tensor {bad[0]!r} has a non-finite "
                          f"value at flat index {bad[1]}")
    return Checkpoint(tensors, fingerprint, int(stage))
