"""Parameter containers, forward passes, and checkpoint serialization."""

import io
import re
import struct

import numpy as np
import pytest

from a3 import autodiff as ad
from a3 import models as m
from a3 import pipeline
from a3.container import (MAGIC_CHECKPOINT, check_magic, read_tensor_map,
                          write_tensor_map)
from a3.errors import ConfigError, ContractError, FormatError, ShapeError


def tiny_models(seed: int = 0, in_dim: int = 9) -> m.ModelParams:
    rng = np.random.default_rng(seed)
    enc = m.init_encoder(rng, in_dim, widths=(12, 10), embed_dim=6)
    return m.ModelParams(
        encoder=enc,
        prototypes=m.init_prototypes(rng, 4, 6),
        domain=m.init_domain_classifier(rng, 6, hidden=5),
        rotation=m.init_rotation_classifier(rng, enc, dropout_rate=0.25),
    )


def recorded_ops(t: ad.Tensor) -> list[str]:
    """The op of every node t's graph holds, found through node inputs."""
    ops, seen, stack = [], set(), [t.node]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        ops.append(node.op)
        stack.extend(inp.node for inp in node.inputs)
    return ops


class TestEncode:
    @pytest.mark.parametrize("widths", [(12,), (12, 10), (12, 10, 8)])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_one_node_per_layer(self, widths, normalize):
        enc = m.init_encoder(np.random.default_rng(3), 9, widths, 6)
        z = m.encode(enc, np.ones((4, 9)), normalize=normalize)
        ops = recorded_ops(z)
        assert len(ops) == len(widths) + 1 + normalize
        assert ops.count("dense") == len(widths)
        assert "transpose" not in ops

    def test_zero_weights_give_zero_embeddings(self):
        mp = tiny_models()
        for w, b in mp.encoder.layers:
            w.data[:] = 0.0
            b.data[:] = 0.0
        mp.encoder.projection.data[:] = 0.0
        z = m.encode(mp.encoder, np.ones((3, 9)))
        np.testing.assert_array_equal(z.data, np.zeros((3, 6)))

    def test_normalized_rows_are_unit(self):
        mp = tiny_models(1)
        rng = np.random.default_rng(5)
        z = m.encode(mp.encoder, rng.normal(size=(17, 9)), normalize=True)
        norms = np.linalg.norm(z.data, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_near_zero_rows_still_normalize_safely(self):
        mp = tiny_models(2)
        z = m.encode(mp.encoder, np.zeros((4, 9)), normalize=True)
        assert np.all(np.isfinite(z.data))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 9))
        a = m.encode(tiny_models(3).encoder, x, normalize=True).data
        b = m.encode(tiny_models(3).encoder, x, normalize=True).data
        assert np.array_equal(a, b)

    def test_width_mismatch_raises(self):
        mp = tiny_models()
        with pytest.raises(ShapeError):
            m.encode(mp.encoder, np.ones((3, 8)))

    def test_layer_chain_validated(self):
        rng = np.random.default_rng(0)
        w1 = ad.Tensor(rng.normal(size=(4, 3)))
        b1 = ad.Tensor(np.zeros(4))
        w2 = ad.Tensor(rng.normal(size=(5, 6)))
        b2 = ad.Tensor(np.zeros(5))
        with pytest.raises(ShapeError):
            m.EncoderParams([(w1, b1), (w2, b2)], ad.Tensor(rng.normal(size=(2, 5))))


class TestPrototypeScores:
    def test_self_dot_is_one_over_tau(self):
        c = np.eye(4)[:3]
        z = ad.Tensor(c.copy())
        protos = m.Prototypes(ad.Tensor(np.eye(4)[:4]))
        s1 = m.prototype_scores(z, protos, tau=1.0)
        assert s1.data[0, 0] == pytest.approx(1.0)
        assert s1.data[0, 1] == pytest.approx(0.0)
        s01 = m.prototype_scores(z, protos, tau=0.1)
        np.testing.assert_allclose(s01.data, 10.0 * s1.data, rtol=1e-12)

    def test_entries_bounded_by_inverse_tau(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(6, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        c = rng.normal(size=(7, 5))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        s = m.prototype_scores(ad.Tensor(z), m.Prototypes(ad.Tensor(c)), tau=0.1)
        assert np.all(np.abs(s.data) <= 10.0 + 1e-9)

    def test_nonpositive_tau_rejected(self):
        protos = m.Prototypes(ad.Tensor(np.eye(3)))
        z = ad.Tensor(np.eye(3))
        for tau in (0.0, -0.5):
            with pytest.raises(ConfigError):
                m.prototype_scores(z, protos, tau)

    def test_unnormalized_rows_rejected(self):
        protos = m.Prototypes(ad.Tensor(np.eye(3)))
        with pytest.raises(ContractError):
            m.prototype_scores(ad.Tensor(2.0 * np.eye(3)), protos, tau=1.0)


class TestDomainProb:
    def test_zero_weights_give_half(self):
        mp = tiny_models()
        for t in (mp.domain.w1, mp.domain.b1, mp.domain.w2, mp.domain.b2):
            t.data[:] = 0.0
        p = m.domain_prob(mp.domain, ad.Tensor(np.random.default_rng(0).normal(size=(4, 6))))
        np.testing.assert_allclose(p.data, 0.5, rtol=1e-12)

    def test_outputs_strictly_inside_unit_interval(self):
        mp = tiny_models(4)
        rng = np.random.default_rng(9)
        p = m.domain_prob(mp.domain, ad.Tensor(rng.normal(size=(32, 6))))
        assert p.shape == (32,)
        assert np.all(p.data > 0.0) and np.all(p.data < 1.0)

    def test_bias_increase_raises_every_probability(self):
        mp = tiny_models(5)
        rng = np.random.default_rng(3)
        z = ad.Tensor(rng.normal(size=(8, 6)))
        before = m.domain_prob(mp.domain, z).data.copy()
        mp.domain.b2.data[:] += 1.0
        after = m.domain_prob(mp.domain, z).data
        assert np.all(after > before)


class TestRotationPredict:
    def test_rows_sum_to_one(self):
        mp = tiny_models(6)
        rng = np.random.default_rng(2)
        probs = m.rotation_predict(mp.rotation, rng.normal(size=(10, 9)))
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)

    def test_all_ones_mask_equals_eval_mode(self):
        mp = tiny_models(7)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 9))
        eval_out = m.rotation_predict(mp.rotation, x).data
        ones = np.ones((5, 6))
        masked = m.rotation_predict(mp.rotation, x, mask=ones).data
        assert np.array_equal(eval_out, masked)

    def test_distinct_masks_generally_differ(self):
        mp = tiny_models(8)
        rng = np.random.default_rng(14)
        x = rng.normal(size=(6, 9))
        outs = []
        for _ in range(10):
            mask = (rng.random((6, 6)) >= 0.25).astype(np.float64)
            outs.append(m.rotation_predict(mp.rotation, x, mask=mask).data)
        distinct = {arr.tobytes() for arr in outs}
        assert len(distinct) > 1

    def test_bad_mask_shape_raises(self):
        mp = tiny_models(9)
        with pytest.raises(ShapeError):
            m.rotation_predict(mp.rotation, np.ones((3, 9)), mask=np.ones((3, 5)))

    def test_bad_dropout_rate_rejected(self):
        mp = tiny_models(10)
        with pytest.raises(ConfigError):
            m.RotationClassifierParams(mp.rotation.trunk, mp.rotation.head_w,
                                       mp.rotation.head_b, dropout_rate=1.0)


class TestDropoutMask:
    def test_zero_rate_is_ones_without_a_draw(self):
        rng = np.random.default_rng(31)
        before = rng.bit_generator.state
        mask = m.dropout_mask(rng, (5, 6), 0.0)
        assert rng.bit_generator.state == before
        assert mask.dtype == np.float64
        assert np.array_equal(mask, np.ones((5, 6)))

    @pytest.mark.parametrize("rate", [0.25, 0.5, 0.9])
    def test_equals_inline_inverted_dropout(self, rate):
        keep = 1.0 - rate
        want = (np.random.default_rng(32).random((7, 6)) < keep) \
            .astype(np.float64) / keep
        got = m.dropout_mask(np.random.default_rng(32), (7, 6), rate)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestParamGroup:
    ENCODER = ["encoder.layer0.weight", "encoder.layer0.bias",
               "encoder.layer1.weight", "encoder.layer1.bias",
               "encoder.projection"]
    DOMAIN = ["domain.fc.weight", "domain.fc.bias", "domain.logit.weight",
              "domain.logit.bias"]

    @pytest.mark.parametrize("prefixes,names", [
        (("encoder.", "prototypes."), ENCODER + ["prototypes.vectors"]),
        (("encoder.", "domain."), ENCODER + DOMAIN),
        (("encoder.", "prototypes.", "domain."),
         ENCODER + ["prototypes.vectors"] + DOMAIN),
        (("rotation.",), ["rotation.trunk.layer0.weight",
                          "rotation.trunk.layer0.bias",
                          "rotation.trunk.layer1.weight",
                          "rotation.trunk.layer1.bias",
                          "rotation.trunk.projection",
                          "rotation.head.weight", "rotation.head.bias"]),
    ], ids=["pretrain", "adapt_frozen", "adapt_unfrozen", "rotation"])
    def test_names_and_tensors(self, prefixes, names):
        mp = tiny_models(18)
        group = m.param_group(mp, *prefixes)
        assert list(group) == names
        everything = m.named_tensors(mp)
        assert all(group[name] is everything[name] for name in names)


class TestTensorContainer:
    def test_round_trip_preserves_bits(self):
        rng = np.random.default_rng(21)
        arrays = {
            "alpha": rng.normal(size=(3, 4)),
            "beta": rng.normal(size=(7,)),
            "gamma": np.asarray(rng.normal()),
        }
        buf = io.BytesIO()
        write_tensor_map(buf, arrays)
        buf.seek(0)
        back = read_tensor_map(buf)
        assert set(back) == set(arrays)
        for name in arrays:
            assert np.array_equal(back[name], np.asarray(arrays[name], dtype=np.float64))
            assert back[name].shape == np.asarray(arrays[name]).shape

    def test_truncation_reports_byte_offset(self):
        buf = io.BytesIO()
        write_tensor_map(buf, {"w": np.ones((2, 2))})
        payload = buf.getvalue()[:-9]
        with pytest.raises(FormatError, match=r"byte offset"):
            read_tensor_map(io.BytesIO(payload))

    @pytest.mark.parametrize("header", [
        struct.pack("<I", 2 ** 31),                      # rank 2^31
        struct.pack("<I3Q", 3, 2 ** 40, 2 ** 40, 2 ** 40),  # 2^123 values
        struct.pack("<I2Q", 2, 0, 2 ** 63),              # empty, too wide
    ], ids=["huge_rank", "huge_dims", "zero_by_huge"])
    def test_hostile_sizes_rejected_before_reading(self, header):
        buf = io.BytesIO(struct.pack("<QI", 1, 1) + b"w" + header + b"\0" * 64)
        with pytest.raises(FormatError):
            read_tensor_map(buf)

    def test_duplicate_name_rejected(self):
        # two entries "w" = [1.0] and "w" = [2.0]; the second name starts at
        # 8 (count) + 17 (first header) + 8 (first payload) + 4 (length) = 37
        entry = [struct.pack("<I", 1) + b"w" + struct.pack("<IQd", 1, 1, v)
                 for v in (1.0, 2.0)]
        buf = io.BytesIO(struct.pack("<Q", 2) + b"".join(entry))
        with pytest.raises(FormatError, match=r"duplicate tensor 'w' at byte offset 37"):
            read_tensor_map(buf)

    def test_wrong_magic_rejected(self):
        buf = io.BytesIO(b"BOGUS99" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            check_magic(buf, MAGIC_CHECKPOINT)


# (tensor, wrong value, expected shape) for tiny_models' dims
WRONG_SHAPES = [
    ("rotation.dropout_rate", np.array([0.25, 0.25]), "()"),
    ("prototypes.vectors", np.ones(24), "(k, 6)"),
    ("domain.fc.weight", np.ones((5, 5)), "(hidden, 6)"),
    ("domain.fc.bias", np.ones(4), "(5,)"),
    ("domain.logit.weight", np.ones((1, 4)), "(1, 5)"),
    ("domain.logit.bias", np.ones(()), "(1,)"),
    ("encoder.layer0.bias", np.ones(11), "(12,)"),
    ("encoder.layer1.weight", np.ones((10, 11)), "(width, 12)"),
    ("encoder.projection", np.ones((6, 9)), "(embed_dim, 10)"),
    ("rotation.trunk.layer0.weight", np.ones((12, 8)), "(width, 9)"),
    ("rotation.head.weight", np.ones((4, 5)), "(4, 6)"),
    ("rotation.head.bias", np.ones((4, 1)), "(4,)"),
]


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = m.Checkpoint.of(tiny_models(12), fingerprint=m.fnv1a64("cfg"), stage=3)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        m.save_checkpoint(p1, ckpt)
        loaded = m.load_checkpoint(p1)
        assert loaded.fingerprint == ckpt.fingerprint
        assert loaded.stage == 3
        m.save_checkpoint(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_models_round_trip_bitwise(self):
        mp = tiny_models(13)
        back = m.Checkpoint.of(mp).models()
        for name, t in m.named_tensors(mp).items():
            assert np.array_equal(m.named_tensors(back)[name].data, t.data), name
        assert back.rotation.dropout_rate == mp.rotation.dropout_rate

    def test_file_round_trip_gives_identical_arrays(self, tmp_path):
        mp = tiny_models(19)
        m.save_checkpoint(tmp_path / "c.ckpt", m.Checkpoint.of(mp))
        back = m.named_tensors(m.load_checkpoint(tmp_path / "c.ckpt").models())
        for name, t in m.named_tensors(mp).items():
            assert back[name].shape == t.shape, name
            assert back[name].data.tobytes() == t.data.tobytes(), name

    def test_weights_are_written_as_drawn(self):
        """Memory holds dense weights (d_in, d_out); the checkpoint holds
        them (d_out, d_in), exactly the arrays that initialization draws."""
        cfg = pipeline.RunConfig(encoder_widths="12,10", embed_dim=6,
                                 k_prototypes=4, domain_hidden=5, batch_size=8)
        mp = pipeline._init_models(cfg, np.random.default_rng(31), 9)
        rng = np.random.default_rng(31)  # replay _init_models' draws
        want, prev = {}, 9
        for i, width in enumerate((12, 10)):
            want[f"layer{i}.weight"] = rng.normal(0.0, np.sqrt(2.0 / prev),
                                                  size=(width, prev))
            prev = width
        want["projection"] = rng.normal(0.0, 1.0 / np.sqrt(prev), size=(6, prev))
        want = {prefix + name: a for name, a in want.items()
                for prefix in ("encoder.", "rotation.trunk.")}
        rng.normal(size=(4, 6))  # prototypes
        want["domain.fc.weight"] = rng.normal(0.0, np.sqrt(2.0 / 6), size=(5, 6))
        want["domain.logit.weight"] = rng.normal(0.0, 1.0 / np.sqrt(5),
                                                 size=(1, 5))
        want["rotation.head.weight"] = rng.normal(0.0, 1.0 / np.sqrt(6),
                                                  size=(4, 6))

        arrays = m.to_tensor_map(mp)
        assert {n for n in arrays if n.endswith((".weight", ".projection"))} \
            == set(want)
        for name, a in want.items():
            assert arrays[name].shape == a.shape, name
            assert arrays[name].tobytes() == a.tobytes(), name
        assert mp.encoder.layers[0][0].shape == (9, 12)
        assert mp.encoder.projection.shape == (10, 6)

    def test_truncated_trailer_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        m.save_checkpoint(path, m.Checkpoint.of(tiny_models(14)))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            m.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        ckpt = m.Checkpoint.of(tiny_models(17))
        ckpt.tensors["domain.fc.weight"].reshape(-1)[4] = value
        path = tmp_path / "bad.ckpt"
        m.save_checkpoint(path, ckpt)
        with pytest.raises(FormatError,
                           match=r"'domain.fc.weight' has a non-finite "
                                 r"value at flat index 4"):
            m.load_checkpoint(path)

    def test_missing_tensor_rejected(self):
        arrays = m.to_tensor_map(tiny_models(15))
        del arrays["prototypes.vectors"]
        with pytest.raises(FormatError, match="prototypes.vectors"):
            m.from_tensor_map(arrays)

    @pytest.mark.parametrize("name,value,expected", WRONG_SHAPES,
                             ids=[case[0] for case in WRONG_SHAPES])
    def test_wrong_shape_tensor_rejected(self, name, value, expected):
        arrays = m.to_tensor_map(tiny_models(15))
        arrays[name] = value
        want = (f"checkpoint tensor '{name}' has shape {value.shape}, "
                f"expected {expected}")
        with pytest.raises(FormatError, match="^" + re.escape(want) + "$"):
            m.from_tensor_map(arrays)

    def test_missing_dropout_rate_rejected(self):
        arrays = m.to_tensor_map(tiny_models(15))
        del arrays["rotation.dropout_rate"]
        with pytest.raises(FormatError, match="'rotation.dropout_rate'"):
            m.from_tensor_map(arrays)

    def test_clone_is_deep(self):
        # adapt builds its source and target models from two models() calls
        # on one checkpoint; they must not share storage
        mp = tiny_models(16)
        ckpt = m.Checkpoint.of(mp)
        first, second = ckpt.models(), ckpt.models()
        first.encoder.layers[0][0].data[:] += 1.0
        assert not np.array_equal(first.encoder.layers[0][0].data,
                                  second.encoder.layers[0][0].data)
        assert np.array_equal(second.encoder.layers[0][0].data,
                              mp.encoder.layers[0][0].data)
        mp.encoder.layers[0][0].data[:] -= 1.0
        assert np.array_equal(ckpt.models().encoder.layers[0][0].data,
                              second.encoder.layers[0][0].data)


class TestFingerprint:
    def test_known_vectors(self):
        assert m.fnv1a64("") == 0xCBF29CE484222325
        assert m.fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert m.fnv1a64("foobar") == 0x85944171F73967E8

    def test_sensitive_to_any_change(self):
        assert m.fnv1a64("lr = 0.1") != m.fnv1a64("lr = 0.2")
