"""Synthetic domain-shift data: oriented-stroke glyph classes, a
parameterized target-domain corruption, deterministic two-view
augmentations for the swap objective, and bundle file handling.

Glyphs are soft-painted line strokes so that 90-degree rotations are both
lossless and visually meaningful, which the rotation pretext task needs.
The target domain applies translate, intensity scale, gamma contrast, and
additive noise to independently jittered draws of the same class
templates.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import (MAGIC_DATASET, _read_exact, check_magic, read_tensor_map,
                        write_tensor_map)
from .errors import ConfigError, ContractError, FormatError


@dataclass
class ShiftSpec:
    """Target-domain corruption parameters."""

    intensity_scale: float
    noise_sigma: float
    translation_px: int
    contrast_gamma: float

    def __post_init__(self) -> None:
        for name in ("intensity_scale", "noise_sigma", "contrast_gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"shift field {name} must be finite")
        if self.intensity_scale < 0 or self.noise_sigma < 0:
            raise ConfigError("intensity_scale and noise_sigma must be >= 0")
        if self.contrast_gamma <= 0:
            raise ConfigError(
                f"contrast_gamma must be positive, got {self.contrast_gamma}")


@dataclass
class DomainSpec:
    """Dataset geometry, shift parameters, and the generation seed."""

    n_classes: int
    samples_per_class: int
    image_side: int
    shift: ShiftSpec
    seed: int

    def __post_init__(self) -> None:
        if self.image_side < 8:
            raise ConfigError(
                f"image_side must be >= 8, got {self.image_side}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.samples_per_class < 1:
            raise ConfigError(
                f"samples_per_class must be >= 1, got {self.samples_per_class}")


@dataclass
class DatasetBundle:
    """Labeled source set, unlabeled target pool, held-out target labels.

    target_y_eval exists solely for the evaluator; training code paths
    accept only target_x.
    """

    source_x: np.ndarray
    source_y: np.ndarray
    target_x: np.ndarray
    target_y_eval: np.ndarray
    spec: DomainSpec | None = None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _draw_template(side: int, rng: np.random.Generator) -> np.ndarray:
    """Soft-painted glyph of 2 or 3 oriented strokes, peak intensity 1."""
    img = np.zeros((side, side))
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float64)
    for _ in range(2 + int(rng.integers(0, 2))):
        cx, cy = rng.uniform(side * 0.25, side * 0.75, size=2)
        theta = rng.uniform(0.0, np.pi)
        length = side * rng.uniform(0.4, 0.65)
        for t in np.linspace(-0.5, 0.5, 3 * side):
            px = cx + t * length * np.cos(theta)
            py = cy + t * length * np.sin(theta)
            img += np.exp(-((xx - px) ** 2 + (yy - py) ** 2) / (2 * 0.55 ** 2))
    return img / img.max()


def _jitter(rolled: np.ndarray, y: np.ndarray, rng: np.random.Generator,
            shift_noise: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample variation of the class templates y: one-pixel roll,
    amplitude wobble, light noise. rolled[3 * (dy + 1) + dx + 1] holds the
    templates rolled by (dy, dx).

    Each sample draws its roll, amplitude and noise grid in this order, and
    with shift_noise the target's standard normal shift noise grid after
    them; those grids are returned, else None."""
    n, side = y.shape[0], rolled.shape[-1]
    rolls = np.empty((n, 2), dtype=np.int64)
    amp = np.empty(n)
    z = np.empty((n, side, side))
    z_shift = np.empty((n, side, side)) if shift_noise else None
    for i in range(n):
        rolls[i, 0] = rng.integers(-1, 2)
        rolls[i, 1] = rng.integers(-1, 2)
        amp[i] = rng.uniform(0.9, 1.1)
        rng.standard_normal(out=z[i])
        if shift_noise:
            rng.standard_normal(out=z_shift[i])
    img = rolled[3 * rolls[:, 0] + rolls[:, 1] + 4, y]
    img *= amp[:, None, None]
    z *= 0.05
    z += 0.0  # as in Generator.normal: loc + scale * z
    img += z
    return np.clip(img, 0.0, 1.0, out=img), z_shift


def _shift(img: np.ndarray, shift: ShiftSpec, z: np.ndarray) -> np.ndarray:
    """Target-domain corruption of a (B, side, side) batch of [0, 1] grids,
    with standard normal noise z (overwritten)."""
    t = shift.translation_px
    out = np.roll(img, (t, t), axis=(1, 2))
    out *= shift.intensity_scale
    np.clip(out, 0.0, 1.0, out=out)
    out **= shift.contrast_gamma
    z *= shift.noise_sigma
    z += 0.0
    out += z
    return np.clip(out, 0.0, 1.0, out=out)


def generate_domain_pair(spec: DomainSpec) -> DatasetBundle:
    """Deterministic source/target draw of the same glyph classes."""
    side = spec.image_side
    root = np.random.SeedSequence(spec.seed)
    ss_templates, ss_source, ss_target = root.spawn(3)
    templates = np.stack([_draw_template(side, np.random.default_rng(child))
                          for child in ss_templates.spawn(spec.n_classes)])
    rolled = np.stack([np.roll(templates, (dy, dx), axis=(1, 2))
                       for dy in (-1, 0, 1) for dx in (-1, 0, 1)])

    n = spec.n_classes * spec.samples_per_class
    y = np.repeat(np.arange(spec.n_classes, dtype=np.int64),
                  spec.samples_per_class)
    source, _ = _jitter(rolled, y, np.random.default_rng(ss_source))
    target, z = _jitter(rolled, y, np.random.default_rng(ss_target),
                        shift_noise=True)
    source_x = source.reshape(n, side * side)
    target_x = _shift(target, spec.shift, z).reshape(n, side * side)
    return DatasetBundle(source_x=source_x, source_y=y.copy(),
                         target_x=target_x, target_y_eval=y.copy(), spec=spec)


# ---------------------------------------------------------------------------
# Two-view augmentation
# ---------------------------------------------------------------------------

# Each view: crop and resize, scale intensity, add noise, clip to [0, 1]. No
# flip: mirrored strokes would map classes onto each other.
CROP_MIN_FRAC = 0.7
INTENSITY_RANGE = (0.8, 1.2)
NOISE_SIGMA = 0.05


def _crop_resize(grids: np.ndarray, frac: np.ndarray, ox: np.ndarray,
                 oy: np.ndarray) -> np.ndarray:
    """Bilinear resample of each (B, side, side) grid's offset crop back to
    full side; grid b keeps the fraction frac[b] of its side, placed at
    offset (ox[b], oy[b]) of the slack.

    Separable: every source row is first blended along its columns, then
    the two rows around each output row are blended. Each output element
    is still (top * (1 - wr) + bot * wr) of the two column blends."""
    n, side = grids.shape[0], grids.shape[1]
    span = frac * (side - 1)
    x0 = ox * ((side - 1) - span)
    y0 = oy * ((side - 1) - span)
    ramp = np.linspace(0.0, span, side, axis=-1)
    cols = x0[:, None] + ramp
    rows = y0[:, None] + ramp
    ci = np.clip(np.floor(cols).astype(np.int64), 0, side - 2)
    ri = np.clip(np.floor(rows).astype(np.int64), 0, side - 2)
    wc = (cols - ci)[:, None, :]
    wr = (rows - ri)[:, :, None]
    # Column pass: blend every source row at the columns ci, ci + 1.
    at = np.arange(0, n * side * side, side).reshape(n, side, 1) + ci[:, None, :]
    flat = grids.reshape(-1)
    h = flat.take(at)
    h *= 1 - wc
    right = flat.take(at + 1)
    right *= wc
    h += right
    # Row pass: blend rows ri and ri + 1 of the column-blended grids.
    at = (np.arange(0, n * side, side)[:, None] + ri).reshape(-1)
    h = h.reshape(n * side, side)
    out = h.take(at, axis=0).reshape(n, side, side)
    out *= 1 - wr
    bot = h.take(at + 1, axis=0).reshape(n, side, side)
    bot *= wr
    out += bot
    return out


def _augment_one_view(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n, side = x.shape[0], math.isqrt(x.shape[1])
    # Draw pass, per sample and in this stream order: the four uniforms
    # (crop fraction, x and y offset, intensity) and then the noise grid.
    # Drawing each kind for the whole batch at once would change every view.
    u = np.empty((n, 4))
    z = np.empty((n, side, side))
    for i in range(n):
        rng.random(out=u[i])
        rng.standard_normal(out=z[i])
    # The maps Generator.uniform and Generator.normal apply to these draws,
    # low + range * u and loc + scale * z, for the whole batch; the offsets
    # are uniform on [0, 1), where that map is the identity.
    frac = CROP_MIN_FRAC + (1.0 - CROP_MIN_FRAC) * u[:, 0]
    lo, hi = INTENSITY_RANGE
    scale = lo + (hi - lo) * u[:, 3]
    z *= NOISE_SIGMA
    z += 0.0  # as in 0.0 + sigma * z: a -0.0 draw becomes 0.0
    grids = _crop_resize(x.reshape(n, side, side), frac, u[:, 1], u[:, 2])
    grids = grids * scale[:, None, None]
    grids += z
    np.clip(grids, 0.0, 1.0, out=grids)
    return grids.reshape(n, side * side)


def augment_two_views(x: np.ndarray, seed: int):
    """Two independently augmented views of a flattened square batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or math.isqrt(x.shape[1]) ** 2 != x.shape[1]:
        raise ContractError(
            f"augment_two_views expects flattened square images, got {x.shape}")
    ss_a, ss_b = np.random.SeedSequence(seed).spawn(2)
    return (_augment_one_view(x, np.random.default_rng(ss_a)),
            _augment_one_view(x, np.random.default_rng(ss_b)))


# ---------------------------------------------------------------------------
# Bundle files
# ---------------------------------------------------------------------------

def save_bundle(path: str | Path, bundle: DatasetBundle) -> None:
    arrays = {
        "source_x": bundle.source_x,
        "source_y": bundle.source_y.astype(np.float64),
        "target_x": bundle.target_x,
        "target_y_eval": bundle.target_y_eval.astype(np.float64),
    }
    spec_json = "" if bundle.spec is None else json.dumps(
        dataclasses.asdict(bundle.spec), sort_keys=True)
    payload = spec_json.encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC_DATASET)
        write_tensor_map(f, arrays)
        f.write(struct.pack("<Q", len(payload)))
        f.write(payload)


def load_bundle(path: str | Path) -> DatasetBundle:
    with open(path, "rb") as f:
        check_magic(f, MAGIC_DATASET)
        arrays = read_tensor_map(f)
        (n,) = struct.unpack("<Q", _read_exact(f, 8))
        spec_at = f.tell()
        payload = _read_exact(f, n)
    for key in ("source_x", "source_y", "target_x", "target_y_eval"):
        if key not in arrays:
            raise FormatError(f"bundle is missing tensor {key!r}")
    spec = _parse_spec(payload, spec_at) if payload else None
    _check_bundle(arrays, spec)
    return DatasetBundle(
        source_x=arrays["source_x"],
        source_y=arrays["source_y"].astype(np.int64),
        target_x=arrays["target_x"],
        target_y_eval=arrays["target_y_eval"].astype(np.int64),
        spec=spec,
    )


def _parse_spec(payload: bytes, at: int) -> DomainSpec:
    try:
        fields = json.loads(payload.decode("utf-8"))
        fields["shift"] = ShiftSpec(**fields["shift"])
        spec = DomainSpec(**fields)
    except (ValueError, KeyError, TypeError, RecursionError,
            ConfigError) as exc:
        raise FormatError(f"bad bundle spec at byte offset {at}: "
                          f"{type(exc).__name__}: {exc}") from exc
    ints = {"n_classes": spec.n_classes, "image_side": spec.image_side,
            "samples_per_class": spec.samples_per_class, "seed": spec.seed,
            "translation_px": spec.shift.translation_px}
    for name, v in ints.items():
        if type(v) is not int:
            raise FormatError(
                f"bad bundle spec at byte offset {at}: {name} must be an "
                f"integer, got {v!r}")
    return spec


def _check_bundle(arrays: dict[str, np.ndarray], spec: DomainSpec | None) -> None:
    """Reject tensors that disagree with each other or with the spec."""
    n_classes = math.inf if spec is None else spec.n_classes
    for xs, ys in (("source_x", "source_y"), ("target_x", "target_y_eval")):
        x, y = arrays[xs], arrays[ys]
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise FormatError(
                f"bundle {xs} has shape {x.shape} and {ys} {y.shape}; "
                f"need N x d rows and N labels")
        for key, a in ((xs, x), (ys, y)):
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                raise FormatError(
                    f"bundle {key} has a non-finite value at flat index "
                    f"{bad[0]}")
        bad = np.flatnonzero((y != np.floor(y)) | (y < 0) | (y >= n_classes))
        if bad.size:
            i = bad[0]
            raise FormatError(
                f"bundle {ys}[{i}] = {float(y[i])} is not a class label in "
                f"[0, {n_classes})")
    width = arrays["source_x"].shape[1]
    if arrays["target_x"].shape[1] != width:
        raise FormatError(
            f"bundle source_x has {width} features, target_x "
            f"{arrays['target_x'].shape[1]}")
    if spec is not None and width != spec.image_side ** 2:
        raise FormatError(
            f"bundle rows have {width} features; spec image_side "
            f"{spec.image_side} needs {spec.image_side ** 2}")
