"""Synthetic domain-pair generation, augmentation, and bundle files."""

import dataclasses
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a3 import data as dt
from a3.container import MAGIC_DATASET, write_tensor_map
from a3.errors import ConfigError, ContractError, FormatError

from helpers import fit_pixel_probe, probe_accuracy


def zero_shift():
    return dt.ShiftSpec(intensity_scale=1.0, noise_sigma=0.0, translation_px=0,
                        contrast_gamma=1.0)


# the target shift of every spec below that does not test another one
SHIFT = dt.ShiftSpec(intensity_scale=0.7, noise_sigma=0.15, translation_px=2,
                     contrast_gamma=1.5)


class TestSpecs:
    def test_small_side_rejected(self):
        with pytest.raises(ConfigError):
            dt.DomainSpec(n_classes=10, samples_per_class=100, image_side=7,
                          shift=SHIFT, seed=0)

    def test_bad_shift_values_rejected(self):
        with pytest.raises(ConfigError):
            dataclasses.replace(SHIFT, noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            dataclasses.replace(SHIFT, contrast_gamma=0.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(SHIFT, intensity_scale=float("inf"))

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ConfigError):
            dt.DomainSpec(n_classes=1, samples_per_class=100, image_side=16,
                          shift=SHIFT, seed=0)
        with pytest.raises(ConfigError):
            dt.DomainSpec(n_classes=10, samples_per_class=0, image_side=16,
                          shift=SHIFT, seed=0)


def reference_domain_pair(spec):
    """Per-sample loop form of dt.generate_domain_pair: each sample draws
    and builds its source image, and its target image, before the next."""
    side = spec.image_side
    ss_templates, ss_source, ss_target = np.random.SeedSequence(
        spec.seed).spawn(3)
    templates = [dt._draw_template(side, np.random.default_rng(child))
                 for child in ss_templates.spawn(spec.n_classes)]

    def jitter(template, rng):
        img = np.roll(template, (int(rng.integers(-1, 2)),
                                 int(rng.integers(-1, 2))), axis=(0, 1))
        img = img * rng.uniform(0.9, 1.1)
        img = img + rng.normal(0.0, 0.05, img.shape)
        return np.clip(img, 0.0, 1.0)

    def shift(img, rng):
        s = spec.shift
        out = np.roll(img, (s.translation_px, s.translation_px), axis=(0, 1))
        out = np.clip(out * s.intensity_scale, 0.0, 1.0) ** s.contrast_gamma
        out = out + rng.normal(0.0, s.noise_sigma, out.shape)
        return np.clip(out, 0.0, 1.0)

    y = np.repeat(np.arange(spec.n_classes), spec.samples_per_class)
    rng_src = np.random.default_rng(ss_source)
    rng_tgt = np.random.default_rng(ss_target)
    source_x = np.stack([jitter(templates[c], rng_src).reshape(-1) for c in y])
    target_x = np.stack([shift(jitter(templates[c], rng_tgt), rng_tgt)
                         .reshape(-1) for c in y])
    return source_x, target_x


# (translation_px, contrast_gamma, noise_sigma, intensity_scale)
REFERENCE_SHIFTS = [(1, 0.8, 0.15, 0.7), (2, 1.5, 0.15, 0.7),
                    (3, 2.0, 0.15, 0.9), (2, 1.5, 0.0, 0.7),
                    (0, 1.0, 0.0, 1.0), (-1, 2, 0, 1), (17, 0.5, 0.3, 1.3)]


class TestGeneration:
    def test_minimal_bundle_shapes(self):
        spec = dt.DomainSpec(n_classes=2, samples_per_class=1, image_side=16,
                             shift=SHIFT, seed=0)
        b = dt.generate_domain_pair(spec)
        assert b.source_x.shape == (2, 256)
        assert b.source_y.shape == (2,)
        assert b.target_x.shape == (2, 256)
        assert b.target_y_eval.shape == (2,)

    def test_deterministic_per_seed(self):
        spec = dt.DomainSpec(n_classes=3, samples_per_class=4, image_side=16,
                             shift=SHIFT, seed=11)
        a = dt.generate_domain_pair(spec)
        b = dt.generate_domain_pair(spec)
        assert a.source_x.tobytes() == b.source_x.tobytes()
        assert a.target_x.tobytes() == b.target_x.tobytes()
        c = dt.generate_domain_pair(dataclasses.replace(spec, seed=12))
        assert a.source_x.tobytes() != c.source_x.tobytes()

    def test_pixels_in_unit_range(self):
        b = dt.generate_domain_pair(dt.DomainSpec(
            n_classes=4, samples_per_class=6, image_side=16, shift=SHIFT,
            seed=0))
        for arr in (b.source_x, b.target_x):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_zero_shift_probe_reaches_sanity_floor(self):
        spec = dt.DomainSpec(n_classes=10, samples_per_class=100,
                             image_side=16, shift=zero_shift(), seed=5)
        b = dt.generate_domain_pair(spec)
        w, bias = fit_pixel_probe(b.source_x, b.source_y, spec.n_classes)
        acc = probe_accuracy(w, bias, b.target_x, b.target_y_eval)
        assert acc >= 0.95

    def test_noise_monotonically_degrades_probe(self):
        sigmas = [0.0, 0.12, 0.24, 0.36]
        means = []
        for sigma in sigmas:
            accs = []
            for seed in range(5):
                spec = dt.DomainSpec(
                    n_classes=10, samples_per_class=40, image_side=16,
                    shift=dt.ShiftSpec(intensity_scale=1.0, noise_sigma=sigma,
                                       translation_px=0, contrast_gamma=1.0),
                    seed=seed)
                b = dt.generate_domain_pair(spec)
                w, bias = fit_pixel_probe(b.source_x, b.source_y, 10, steps=100)
                accs.append(probe_accuracy(w, bias, b.target_x, b.target_y_eval))
            means.append(float(np.mean(accs)))
        inversions = sum(1 for lo, hi in zip(means, means[1:]) if hi > lo + 1e-9)
        assert inversions <= 1, means

    @pytest.mark.parametrize("t, gamma, sigma, scale", REFERENCE_SHIFTS)
    def test_batched_generation_equals_per_sample_reference(self, t, gamma,
                                                             sigma, scale):
        for seed, (classes, per_class, side) in enumerate(
                [(2, 1, 8), (3, 5, 16), (10, 7, 20), (4, 3, 9)]):
            spec = dt.DomainSpec(
                n_classes=classes, samples_per_class=per_class,
                image_side=side, seed=seed,
                shift=dt.ShiftSpec(scale, sigma, t, gamma))
            b = dt.generate_domain_pair(spec)
            source_x, target_x = reference_domain_pair(spec)
            assert b.source_x.tobytes() == source_x.tobytes()
            assert b.target_x.tobytes() == target_x.tobytes()

    def test_labels_match_between_domains(self):
        b = dt.generate_domain_pair(dt.DomainSpec(
            n_classes=3, samples_per_class=5, image_side=16, shift=SHIFT,
            seed=0))
        np.testing.assert_array_equal(b.source_y, b.target_y_eval)
        assert b.source_y.dtype == np.int64


def reference_crop_resize(grid, frac, ox, oy):
    """Per-sample bilinear crop, the loop form of dt._crop_resize."""
    side = grid.shape[0]
    span = frac * (side - 1)
    x0 = ox * ((side - 1) - span)
    y0 = oy * ((side - 1) - span)
    cols = x0 + np.linspace(0.0, span, side)
    rows = y0 + np.linspace(0.0, span, side)
    ci = np.clip(np.floor(cols).astype(np.int64), 0, side - 2)
    ri = np.clip(np.floor(rows).astype(np.int64), 0, side - 2)
    wc = cols - ci
    wr = rows - ri
    top = (grid[np.ix_(ri, ci)] * (1 - wc) + grid[np.ix_(ri, ci + 1)] * wc)
    bot = (grid[np.ix_(ri + 1, ci)] * (1 - wc) + grid[np.ix_(ri + 1, ci + 1)] * wc)
    return top * (1 - wr[:, None]) + bot * wr[:, None]


def reference_one_view(x, rng, crop=True, crop_min_frac=0.7):
    """Per-sample loop form of dt._augment_one_view: each sample draws and
    applies its crop, intensity and noise before the next. With crop=False
    the crop is still drawn but not applied."""
    side = int(round(np.sqrt(x.shape[1])))
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        frac = rng.uniform(crop_min_frac, 1.0)
        ox, oy = rng.uniform(0.0, 1.0, size=2)
        grid = x[i].reshape(side, side)
        if crop:
            grid = reference_crop_resize(grid, frac, ox, oy)
        grid = grid * rng.uniform(0.8, 1.2)
        grid = grid + rng.normal(0.0, 0.05, grid.shape)
        out[i] = np.clip(grid, 0.0, 1.0).reshape(-1)
    return out


def reference_two_views(x, seed, **stages):
    ss_a, ss_b = np.random.SeedSequence(seed).spawn(2)
    return (reference_one_view(x, np.random.default_rng(ss_a), **stages),
            reference_one_view(x, np.random.default_rng(ss_b), **stages))


# (crop, crop_min_frac): the module's configuration, the crop stage swapped
# for the identity on both sides (isolates intensity, noise and clip), and
# full-frame crops only.
REFERENCE_STAGES = [(True, dt.CROP_MIN_FRAC), (False, dt.CROP_MIN_FRAC),
                    (True, 1.0)]


class TestAugmentation:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        x = rng.random((5, 256))
        a1, b1 = dt.augment_two_views(x, seed=9)
        a2, b2 = dt.augment_two_views(x, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a3_, _ = dt.augment_two_views(x, seed=10)
        assert not np.array_equal(a1, a3_)

    def test_views_differ_and_stay_in_range(self):
        rng = np.random.default_rng(2)
        x = np.clip(rng.random((6, 256)), 0.0, 1.0)
        za, zb = dt.augment_two_views(x, seed=4)
        assert not np.array_equal(za, zb)
        for arr in (za, zb):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
            assert np.all(np.isfinite(arr))

    def test_full_frame_crop_is_identity(self):
        rng = np.random.default_rng(3)
        grid = rng.random((16, 16))
        out = dt._crop_resize(grid[None], frac=np.array([1.0]),
                              ox=np.array([0.37]), oy=np.array([0.91]))[0]
        np.testing.assert_allclose(out, grid, atol=1e-12)

    @pytest.mark.parametrize(
        "crop, crop_min_frac", REFERENCE_STAGES,
        ids=[f"(crop={c}, crop_min_frac={f})" for c, f in REFERENCE_STAGES])
    def test_batched_views_equal_per_sample_reference(self, crop, crop_min_frac,
                                                      monkeypatch):
        monkeypatch.setattr(dt, "CROP_MIN_FRAC", crop_min_frac)
        if not crop:
            monkeypatch.setattr(dt, "_crop_resize",
                                lambda grids, frac, ox, oy: grids)
        # 15, 16 and 63 are trailing-chunk sizes
        for seed in range(4):
            for side in (8, 16):
                for n in (1, 2, 15, 16, 17, 63, 64):
                    x = np.random.default_rng(100 + seed).random((n, side * side))
                    got = dt.augment_two_views(x, seed=seed)
                    want = reference_two_views(x, seed, crop=crop,
                                               crop_min_frac=crop_min_frac)
                    for g, w in zip(got, want):
                        assert g.tobytes() == w.tobytes(), (seed, side, n)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80),
           side=st.integers(8, 20), zeros=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    def test_views_equal_per_sample_reference_property(self, seed, n, side,
                                                       zeros):
        x = np.random.default_rng(seed).random((n, side * side))
        if zeros:
            x[:, ::3] = 0.0
        got = dt.augment_two_views(x, seed=seed)
        for g, w in zip(got, reference_two_views(x, seed)):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("side", [8, 16, 20])
    def test_crop_equals_per_sample_reference(self, side):
        rng = np.random.default_rng(side)
        edges = [(frac, ox, oy) for frac in (dt.CROP_MIN_FRAC, 1.0)
                 for ox in (0.0, 1.0) for oy in (0.0, 1.0)]
        drawn = [(dt.CROP_MIN_FRAC + (1 - dt.CROP_MIN_FRAC) * a, b, c)
                 for a, b, c in rng.random((24, 3))]
        frac, ox, oy = (np.array(v) for v in zip(*edges, *drawn))
        grids = rng.random((frac.size, side, side))
        got = dt._crop_resize(grids, frac, ox, oy)
        for i in range(frac.size):
            want = reference_crop_resize(grids[i], frac[i], ox[i], oy[i])
            assert got[i].tobytes() == want.tobytes(), (frac[i], ox[i], oy[i])

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            dt.augment_two_views(np.zeros((2, 60)), seed=0)


class TestBundleIo:
    def make_bundle(self):
        spec = dt.DomainSpec(n_classes=3, samples_per_class=2, image_side=16,
                             shift=SHIFT, seed=21)
        return dt.generate_domain_pair(spec)

    def test_round_trip_bitwise(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "pair.bin"
        dt.save_bundle(path, bundle)
        back = dt.load_bundle(path)
        assert np.array_equal(back.source_x, bundle.source_x)
        assert np.array_equal(back.source_y, bundle.source_y)
        assert np.array_equal(back.target_x, bundle.target_x)
        assert np.array_equal(back.target_y_eval, bundle.target_y_eval)
        assert back.source_y.dtype == np.int64

    def test_sidecar_spec_round_trips_all_fields(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "pair.bin"
        dt.save_bundle(path, bundle)
        back = dt.load_bundle(path)
        assert back.spec == bundle.spec

    def test_truncation_rejected_without_partial_bundle(self, tmp_path):
        bundle = self.make_bundle()
        path = tmp_path / "pair.bin"
        dt.save_bundle(path, bundle)
        blob = path.read_bytes()
        for cut in (len(blob) - 3, len(blob) // 2, 10):
            clipped = tmp_path / f"cut{cut}.bin"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                dt.load_bundle(clipped)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"A3CKPT1" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            dt.load_bundle(path)

    def test_save_without_spec(self, tmp_path):
        bundle = self.make_bundle()
        bundle.spec = None
        path = tmp_path / "nospec.bin"
        dt.save_bundle(path, bundle)
        assert dt.load_bundle(path).spec is None



SPEC2 = dt.DomainSpec(n_classes=2, samples_per_class=4, image_side=8,
                      shift=SHIFT, seed=3)


def spec_json(**changes) -> bytes:
    fields = dataclasses.asdict(SPEC2)
    fields.update(changes)
    return json.dumps(fields, sort_keys=True).encode("utf-8")


def good_arrays() -> dict:
    b = dt.generate_domain_pair(SPEC2)
    return {"source_x": b.source_x, "source_y": b.source_y.astype(np.float64),
            "target_x": b.target_x,
            "target_y_eval": b.target_y_eval.astype(np.float64)}


def write_raw_bundle(path, arrays=None, sidecar=None, length=None):
    """A bundle file from raw parts: tensors, sidecar bytes, declared length."""
    arrays = good_arrays() if arrays is None else arrays
    sidecar = spec_json() if sidecar is None else sidecar
    buf = io.BytesIO()
    buf.write(MAGIC_DATASET)
    write_tensor_map(buf, arrays)
    buf.write(struct.pack("<Q", len(sidecar) if length is None else length))
    buf.write(sidecar)
    path.write_bytes(buf.getvalue())


def put(index, value):
    def edit(a):
        a[index] = value
        return a
    return edit


class TestBundleValidation:
    def test_raw_writer_matches_save_bundle(self, tmp_path):
        write_raw_bundle(tmp_path / "raw.bin")
        dt.save_bundle(tmp_path / "saved.bin", dt.generate_domain_pair(SPEC2))
        assert (tmp_path / "raw.bin").read_bytes() == \
            (tmp_path / "saved.bin").read_bytes()
        assert dt.load_bundle(tmp_path / "raw.bin").spec == SPEC2

    @pytest.mark.parametrize("sidecar,length,match", [
        (json.dumps({k: v for k, v in dataclasses.asdict(SPEC2).items()
                     if k != "shift"}).encode(), None, "KeyError"),
        (b"\xff\xfe{}", None, "UnicodeDecodeError"),
        (spec_json(colour="red"), None, "colour"),
        (b"{}", 2 ** 62, "truncated"),
        (b"{not json", None, "JSONDecodeError"),
        (b"[1, 2]", None, "TypeError"),
        (spec_json(image_side=4), None, "image_side"),
        (spec_json(n_classes=2.5), None, "n_classes must be an integer"),
        (spec_json(shift={**dataclasses.asdict(SHIFT), "noise_sigma": "x"}),
         None, "TypeError"),
        (b"[" * 100000, None, "byte offset"),
        (spec_json(shift={"intensity_scale": 0.7, "noise_sigma": 0.15}), None,
         "missing 2 required .* 'translation_px' and 'contrast_gamma'"),
        (json.dumps({k: v for k, v in dataclasses.asdict(SPEC2).items()
                     if k != "image_side"}).encode(), None,
         "missing 1 required .* 'image_side'"),
    ], ids=["missing_shift", "non_utf8", "unknown_key", "huge_length",
            "not_json", "not_object", "bad_value", "float_count",
            "bad_shift_type", "deep_nesting", "missing_shift_keys",
            "missing_spec_key"])
    def test_bad_sidecar_is_format_error(self, tmp_path, sidecar, length,
                                         match):
        path = tmp_path / "bad.bin"
        write_raw_bundle(path, sidecar=sidecar, length=length)
        with pytest.raises(FormatError, match=match):
            dt.load_bundle(path)

    @pytest.mark.parametrize("key,edit,match", [
        ("source_y", lambda a: a[:2], r"source_y \(2,\)"),
        ("target_y_eval", lambda a: a[:, None], r"target_y_eval \(8, 1\)"),
        ("target_x", lambda a: a[:, :60], "64 features, target_x 60"),
        ("target_x", put((3, 5), np.nan), "target_x has a non-finite"),
        ("source_y", put(3, np.inf), "source_y has a non-finite"),
        ("target_y_eval", put(3, 99.0), r"target_y_eval\[3\] = 99.0"),
        ("source_y", put(3, -1.0), r"source_y\[3\] = -1.0"),
        ("source_y", put(3, 0.5), r"source_y\[3\] = 0.5"),
    ], ids=["label_count", "label_rank", "width_mismatch", "nan_pixel",
            "inf_label", "label_out_of_range", "negative_label",
            "fractional_label"])
    def test_inconsistent_bundle_rejected(self, tmp_path, key, edit, match):
        arrays = good_arrays()
        arrays[key] = edit(arrays[key].copy())
        path = tmp_path / "bad.bin"
        write_raw_bundle(path, arrays=arrays)
        with pytest.raises(FormatError, match=match):
            dt.load_bundle(path)

    def test_width_must_match_image_side(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_raw_bundle(path, sidecar=spec_json(image_side=9))
        with pytest.raises(FormatError, match="image_side 9 needs 81"):
            dt.load_bundle(path)

    def test_spec_less_bundle_still_checks_labels(self, tmp_path):
        path = tmp_path / "nospec.bin"
        arrays = good_arrays()
        arrays["source_y"][0] = -2.0
        write_raw_bundle(path, arrays=arrays, sidecar=b"")
        with pytest.raises(FormatError, match="source_y"):
            dt.load_bundle(path)
        arrays["source_y"][0] = 7.0  # no spec, so no upper bound
        write_raw_bundle(path, arrays=arrays, sidecar=b"")
        assert dt.load_bundle(path).source_y[0] == 7
