"""Synthetic domain-pair generation, augmentation, and bundle files."""

import numpy as np
import pytest

from a3 import data as dt
from a3.errors import ConfigError, ContractError, FormatError

from helpers import fit_pixel_probe, probe_accuracy


def zero_shift():
    return dt.ShiftSpec(intensity_scale=1.0, noise_sigma=0.0, translation_px=0,
                        contrast_gamma=1.0)


class TestSpecs:
    def test_small_side_rejected(self):
        with pytest.raises(ConfigError):
            dt.DomainSpec(image_side=7)

    def test_bad_shift_values_rejected(self):
        with pytest.raises(ConfigError):
            dt.ShiftSpec(noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            dt.ShiftSpec(contrast_gamma=0.0)
        with pytest.raises(ConfigError):
            dt.ShiftSpec(intensity_scale=float("inf"))

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ConfigError):
            dt.DomainSpec(n_classes=1)
        with pytest.raises(ConfigError):
            dt.DomainSpec(samples_per_class=0)


class TestGeneration:
    def test_minimal_bundle_shapes(self):
        spec = dt.DomainSpec(n_classes=2, samples_per_class=1, image_side=16)
        b = dt.generate_domain_pair(spec)
        assert b.source_x.shape == (2, 256)
        assert b.source_y.shape == (2,)
        assert b.target_x.shape == (2, 256)
        assert b.target_y_eval.shape == (2,)

    def test_deterministic_per_seed(self):
        spec = dt.DomainSpec(n_classes=3, samples_per_class=4, seed=11)
        a = dt.generate_domain_pair(spec)
        b = dt.generate_domain_pair(spec)
        assert a.source_x.tobytes() == b.source_x.tobytes()
        assert a.target_x.tobytes() == b.target_x.tobytes()
        c = dt.generate_domain_pair(dt.DomainSpec(n_classes=3, samples_per_class=4,
                                                  seed=12))
        assert a.source_x.tobytes() != c.source_x.tobytes()

    def test_pixels_in_unit_range(self):
        b = dt.generate_domain_pair(dt.DomainSpec(n_classes=4, samples_per_class=6))
        for arr in (b.source_x, b.target_x):
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_zero_shift_probe_reaches_sanity_floor(self):
        spec = dt.DomainSpec(shift=zero_shift(), seed=5)
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
                    samples_per_class=40,
                    shift=dt.ShiftSpec(intensity_scale=1.0, noise_sigma=sigma,
                                       translation_px=0, contrast_gamma=1.0),
                    seed=seed)
                b = dt.generate_domain_pair(spec)
                w, bias = fit_pixel_probe(b.source_x, b.source_y, 10, steps=100)
                accs.append(probe_accuracy(w, bias, b.target_x, b.target_y_eval))
            means.append(float(np.mean(accs)))
        inversions = sum(1 for lo, hi in zip(means, means[1:]) if hi > lo + 1e-9)
        assert inversions <= 1, means

    def test_labels_match_between_domains(self):
        b = dt.generate_domain_pair(dt.DomainSpec(n_classes=3, samples_per_class=5))
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


def reference_one_view(x, rng, cfg):
    """Per-sample loop form of dt._augment_one_view: each sample draws and
    applies its crop, flip, intensity and noise before the next."""
    side = int(round(np.sqrt(x.shape[1])))
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        grid = x[i].reshape(side, side)
        if cfg.crop:
            frac = rng.uniform(cfg.crop_min_frac, 1.0)
            ox, oy = rng.uniform(0.0, 1.0, size=2)
            grid = reference_crop_resize(grid, frac, ox, oy)
        if cfg.flip and rng.random() < 0.5:
            grid = grid[:, ::-1]
        if cfg.intensity:
            grid = grid * rng.uniform(0.8, 1.2)
        if cfg.noise_sigma > 0.0:
            grid = grid + rng.normal(0.0, cfg.noise_sigma, grid.shape)
        if cfg.crop or cfg.flip or cfg.intensity or cfg.noise_sigma > 0.0:
            grid = np.clip(grid, 0.0, 1.0)
        out[i] = grid.reshape(-1)
    return out


def reference_two_views(x, seed, cfg):
    ss_a, ss_b = np.random.SeedSequence(seed).spawn(2)
    return (reference_one_view(x, np.random.default_rng(ss_a), cfg),
            reference_one_view(x, np.random.default_rng(ss_b), cfg))


EQUIVALENCE_CONFIGS = [
    dt.AugmentConfig(),
    dt.AugmentConfig(crop=False, noise_sigma=0.0, intensity=False),  # flip only
    dt.DISABLED_AUGMENT,
    dt.AugmentConfig(crop=False),
    dt.AugmentConfig(noise_sigma=0.0),
    dt.AugmentConfig(crop_min_frac=1.0),
    dt.AugmentConfig(intensity=False),
]


class TestAugmentation:
    def test_disabled_config_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.random((4, 64))
        za, zb = dt.augment_two_views(x, seed=3, cfg=dt.DISABLED_AUGMENT)
        assert np.array_equal(za, x) and np.array_equal(zb, x)

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

    @pytest.mark.parametrize("cfg", EQUIVALENCE_CONFIGS,
                             ids=lambda cfg: repr(cfg)[len("AugmentConfig"):])
    def test_batched_views_equal_per_sample_reference(self, cfg):
        for seed in range(4):
            for side in (8, 16):
                for n in (1, 2, 17, 64):
                    x = np.random.default_rng(100 + seed).random((n, side * side))
                    got = dt.augment_two_views(x, seed=seed, cfg=cfg)
                    want = reference_two_views(x, seed, cfg)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), (seed, side, n)

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            dt.augment_two_views(np.zeros((2, 60)), seed=0)

    def test_bad_augment_config_rejected(self):
        with pytest.raises(ConfigError):
            dt.AugmentConfig(crop_min_frac=0.0)
        with pytest.raises(ConfigError):
            dt.AugmentConfig(noise_sigma=-1.0)


class TestBundleIo:
    def make_bundle(self):
        spec = dt.DomainSpec(n_classes=3, samples_per_class=2, seed=21)
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
