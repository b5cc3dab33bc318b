"""Orchestration-layer tests: config handling, optimizer schedules, metrics,
probe evaluation, and the pretraining/adaptation loops on small bundles."""

import dataclasses
import inspect
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from a3 import container, data, models, pipeline
from a3.errors import ConfigError, FormatError, NumericError
from helpers import exit_in_child


def small_config(**kw):
    """A config sized for sub-second training runs."""
    base = dict(samples_per_class=20, pretrain_epochs=4, target_epochs=2,
                rotation_epochs=2, budget_total=90, n_cycles=4, kmeans_k=8,
                t_passes=4)
    base.update(kw)
    return pipeline.RunConfig(**base)


def make_bundle(cfg):
    return data.generate_domain_pair(cfg.domain_spec())


def checkpoints_equal(a, b):
    return (a.tensors.keys() == b.tensors.keys()
            and all(np.array_equal(a.tensors[k], b.tensors[k])
                    for k in a.tensors))


class TestSgd:
    def test_cosine_endpoints_and_midpoint(self):
        opt = pipeline.Sgd({}, 0.2, "cosine", 0.9, 0.0)
        assert opt.lr_at(0.0) == pytest.approx(0.2)
        assert opt.lr_at(0.5) == pytest.approx(0.1)
        assert opt.lr_at(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_monotone_decrease(self):
        opt = pipeline.Sgd({}, 1.0, "cosine", 0.9, 0.0)
        grid = [opt.lr_at(p) for p in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(grid, grid[1:]))

    def test_multistep_drops_at_milestones(self):
        opt = pipeline.Sgd({}, 1.0, "multistep", 0.9, 0.0)
        assert pipeline.MULTISTEP_MILESTONES == (0.5, 0.75)
        assert pipeline.MULTISTEP_GAMMA == 0.1
        assert opt.lr_at(0.0) == pytest.approx(1.0)
        assert opt.lr_at(0.49) == pytest.approx(1.0)
        assert opt.lr_at(0.5) == pytest.approx(0.1)
        assert opt.lr_at(0.74) == pytest.approx(0.1)
        assert opt.lr_at(0.75) == pytest.approx(0.01)
        assert opt.lr_at(1.0) == pytest.approx(0.01)

    def test_progress_is_clamped(self):
        opt = pipeline.Sgd({}, 1.0, "cosine", 0.9, 0.0)
        assert opt.lr_at(-0.5) == pytest.approx(1.0)
        assert opt.lr_at(1.5) == pytest.approx(0.0, abs=1e-15)

    def test_single_step_matches_manual_update(self):
        from a3.autodiff import Tensor
        t = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        t.grad = np.array([0.5, 0.25])
        opt = pipeline.Sgd({"p": t}, 0.1, "cosine", 0.9, 0.01)
        opt.step(0.0)
        g = np.array([0.5, 0.25]) + 0.01 * np.array([1.0, -2.0])
        np.testing.assert_allclose(t.data, np.array([1.0, -2.0]) - 0.1 * g,
                                   rtol=1e-12)
        assert t.grad is None

    def test_momentum_accumulates_velocity(self):
        from a3.autodiff import Tensor
        t = Tensor(np.array([0.0]), requires_grad=True)
        opt = pipeline.Sgd({"p": t}, 1.0, "multistep", 0.5, 0.0)
        t.grad = np.array([1.0])
        opt.step(0.0)
        t.grad = np.array([1.0])
        opt.step(0.0)
        # velocities 1.0 then 1.5
        np.testing.assert_allclose(t.data, np.array([-2.5]), rtol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_step_equals_out_of_place_formula(self, order):
        from a3.autodiff import Tensor

        def reference_step(data, velocity, grad, lr, momentum, weight_decay):
            # the out-of-place update that the in-place step replaced
            g = grad + weight_decay * data
            velocity = velocity * momentum
            velocity = velocity + g
            return data - lr * velocity, velocity

        rng = np.random.default_rng(44)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3) * 1e-3, requires_grad=True)
        opt = pipeline.Sgd({"w": w, "b": b}, 0.37, "cosine", 0.9, 3e-4)
        ref = {"w": (w.data.copy(), np.zeros((5, 3))),
               "b": (b.data.copy(), np.zeros(3))}
        for progress in (0.0, 0.3, 0.7):
            grads = {"w": np.asarray(rng.normal(size=(3, 5)).T, order=order),
                     "b": rng.normal(size=3) * 1e2}
            assert grads["w"].flags[order + "_CONTIGUOUS"]
            w.grad, b.grad = grads["w"], grads["b"]
            opt.step(progress)
            lr = opt.lr_at(progress)
            for name, t in (("w", w), ("b", b)):
                ref[name] = reference_step(*ref[name], grads[name], lr, 0.9,
                                           3e-4)
                assert t.data.tobytes() == ref[name][0].tobytes()
                assert opt.velocity[name].tobytes() == ref[name][1].tobytes()
                assert t.grad is None

    def test_params_without_grad_are_skipped(self):
        from a3.autodiff import Tensor
        t = Tensor(np.array([3.0]), requires_grad=True)
        opt = pipeline.Sgd({"p": t}, 0.1, "cosine", 0.9, 1e-6)
        opt.step(0.0)
        np.testing.assert_array_equal(t.data, np.array([3.0]))


FLOAT_FIELDS = [f.name for f in dataclasses.fields(pipeline.RunConfig)
                if f.type == "float"]


class TestRunConfig:
    def test_defaults_validate(self):
        cfg = pipeline.RunConfig()
        assert cfg.n_cycles == 4
        assert cfg.budget_total % (cfg.n_cycles - 1) == 0

    def test_rejects_single_cycle(self):
        with pytest.raises(ConfigError):
            pipeline.RunConfig(n_cycles=1)

    def test_rejects_indivisible_budget(self):
        with pytest.raises(ConfigError):
            pipeline.RunConfig(budget_total=100, n_cycles=4)

    @pytest.mark.parametrize("budget_total,n_cycles,k_prototypes", [
        (30, 4, 16), (45, 4, 16), (9, 4, 4), (2, 3, 2)])
    def test_rejects_cycle_budget_below_min_batch(self, budget_total,
                                                  n_cycles, k_prototypes):
        # the first cycle's core-set must fill one training step
        kw = dict(n_cycles=n_cycles, k_prototypes=k_prototypes)
        with pytest.raises(ConfigError, match="^budget_total "):
            pipeline.RunConfig(budget_total=budget_total, **kw)
        cfg = pipeline.RunConfig(
            budget_total=max(2, k_prototypes) * (n_cycles - 1), **kw)
        assert cfg.budget_total // (cfg.n_cycles - 1) == cfg.min_batch

    def test_rejects_unknown_variants(self):
        with pytest.raises(ConfigError):
            pipeline.RunConfig(acquisition="oracle")
        with pytest.raises(ConfigError):
            pipeline.RunConfig(loss_variant="everything")

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ConfigError):
            pipeline.RunConfig(ssl_lr=0.0)
        with pytest.raises(ConfigError):
            pipeline.RunConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            pipeline.RunConfig(encoder_widths="128,-1")

    def test_float_fields_are_found(self):
        assert {"weight_decay", "tau", "sinkhorn_epsilon", "beta", "lambda1",
                "lambda2", "vat_xi", "vat_eps_radius", "grl_lambda",
                "noise_sigma", "intensity_scale", "contrast_gamma", "ssl_lr",
                "target_lr"} <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_rejects_non_finite_float(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            pipeline.RunConfig(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("lambda1", -0.1), ("lambda2", -0.1), ("grl_lambda", -1.0),
        ("vat_xi", 0.0), ("vat_eps_radius", -1.0), ("vat_power_iters", 0),
        ("ssl_lr", 0.0), ("target_lr", 0.0), ("rotation_lr", 0.0),
        ("momentum", 1.0), ("weight_decay", -1e-3),
        ("contrast_gamma", 0.0), ("image_side", 7), ("n_classes", 1),
    ])
    def test_rejects_out_of_range_setting(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must "):
            pipeline.RunConfig(**{name: value})

    @pytest.mark.parametrize("batch_size,k_prototypes", [
        (1, 16), (15, 16), (1, 2), (3, 4)])
    def test_rejects_batch_below_min_batch(self, batch_size, k_prototypes):
        with pytest.raises(ConfigError, match="^batch_size must be >= "):
            pipeline.RunConfig(batch_size=batch_size,
                               k_prototypes=k_prototypes)
        cfg = pipeline.RunConfig(batch_size=max(2, k_prototypes),
                                 k_prototypes=k_prototypes)
        assert cfg.min_batch == cfg.batch_size

    def test_training_never_receives_labels(self):
        # the label-leakage guard is structural: no training entry point
        # accepts a label array, only evaluate() reads target_y_eval
        for fn in (pipeline.pretrain_source, pipeline.adapt):
            names = set(inspect.signature(fn).parameters)
            assert not any("_y" in n or "label" in n for n in names)


class TestInputMatrix:
    @pytest.mark.parametrize("k_prototypes", [2, 16])
    def test_rejects_fewer_rows_than_one_step(self, k_prototypes):
        cfg = pipeline.RunConfig(k_prototypes=k_prototypes)
        for rows in (0, cfg.min_batch - 1):
            with pytest.raises(ConfigError,
                               match=f"^source_x has {rows} rows, fewer "):
                pipeline._check_input_matrix(np.zeros((rows, cfg.in_dim)),
                                             cfg, "source_x")
        pipeline._check_input_matrix(np.zeros((cfg.min_batch, cfg.in_dim)),
                                     cfg, "source_x")

    def test_pretrain_and_adapt_refuse_before_any_work(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        few = bundle.source_x[:cfg.min_batch - 1]
        with pytest.raises(ConfigError, match="^source_x has 15 rows"):
            pipeline.pretrain_source(cfg, few)
        ckpt, _ = pipeline.pretrain_source(
            dataclasses.replace(cfg, pretrain_epochs=0), bundle.source_x)
        with pytest.raises(ConfigError, match="^target_x has 15 rows"):
            pipeline.adapt(cfg, ckpt, few)


class TestConfigFiles:
    def test_parse_skips_comments_and_blanks(self):
        pairs = pipeline.parse_config_text(
            "# header\n\nseed = 3  # trailing\n  tau = 0.2\n")
        assert pairs == {"seed": "3", "tau": "0.2"}

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ConfigError):
            pipeline.parse_config_text("seed: 3\n")
        with pytest.raises(ConfigError):
            pipeline.parse_config_text("= 3\n")

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            pipeline.config_from_pairs({"learning_rate": "0.1"})

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="seed"):
            pipeline.config_from_pairs({"seed": "three"})

    def test_bool_spellings(self):
        for raw, want in (("true", True), ("1", True), ("on", True),
                          ("false", False), ("0", False), ("off", False)):
            cfg = pipeline.config_from_pairs({"warm_start": raw})
            assert cfg.warm_start is want
        with pytest.raises(ConfigError):
            pipeline.config_from_pairs({"warm_start": "maybe"})

    def test_canonical_text_round_trips(self, tmp_path):
        cfg = pipeline.RunConfig(seed=11, tau=0.25, warm_start=True,
                                 encoder_widths="64,32")
        path = tmp_path / "run.cfg"
        path.write_text(pipeline.canonical_text(cfg), encoding="utf-8")
        assert pipeline.load_config(path) == cfg

    def test_load_config_applies_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\ntau = 0.2\n", encoding="utf-8")
        cfg = pipeline.load_config(path, overrides={"seed": "7"})
        assert cfg.seed == 7
        assert cfg.tau == 0.2

    def test_non_utf8_config_is_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"seed = \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            pipeline.load_config(path)

    def test_fingerprint_tracks_values(self):
        a = pipeline.RunConfig(seed=0)
        b = pipeline.RunConfig(seed=1)
        assert pipeline.config_fingerprint(a) != pipeline.config_fingerprint(b)
        assert (pipeline.config_fingerprint(a)
                == pipeline.config_fingerprint(pipeline.RunConfig(seed=0)))


GOOD_METRICS = {"stage": 1, "epoch": 0, "swap": 0.5, "dal": 0.1, "ent": 0.2,
                "vat": 0.3, "total": 1.1, "coreset_size": 40,
                "source_probe_acc": 0.9, "target_acc": -1}


def metrics_line(**changes):
    return json.dumps({**GOOD_METRICS, **changes}).encode()


class TestMetrics:
    @pytest.mark.parametrize("line,why", [
        (b"{", "Expecting"),
        (b"[1, 2]", "must be a mapping"),
        (b"null", "must be a mapping"),
        (b"\xff", "decode"),
        (b"[" * 100000, "recursion"),
        (b'{"stage": 1}', "missing"),
        (metrics_line(elapsed_ms=0.0), "unexpected keyword"),
        (metrics_line(swap="0.5"), "swap = '0.5' is not a number"),
        (metrics_line(target_acc=None), "target_acc = None is not a number"),
        (metrics_line(coreset_size=True), "coreset_size = True is not a"),
    ], ids=["truncated", "list", "null", "not_utf8", "deep", "missing_field",
            "unknown_field", "string_value", "null_value", "bool_count"])
    def test_bad_line_is_format_error(self, tmp_path, line, why):
        path = tmp_path / "metrics.jsonl"
        path.write_bytes(metrics_line() + b"\n" + line + b"\n")
        with pytest.raises(FormatError, match=re.escape(f"{path} line 2")) \
                as info:
            pipeline.read_metrics(path)
        assert why in str(info.value)

    def test_good_line_parses(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_bytes(metrics_line() + b"\n\n")
        assert pipeline.read_metrics(path) == [
            pipeline.MetricsRecord(**GOOD_METRICS)]

    def test_jsonl_round_trip(self, tmp_path):
        records = [pipeline.MetricsRecord(stage=1, epoch=2, swap=0.5, dal=0.1,
                                          ent=0.2, vat=0.3, total=1.1,
                                          coreset_size=40,
                                          source_probe_acc=0.9,
                                          target_acc=0.4)]
        path = tmp_path / "metrics.jsonl"
        pipeline.write_metrics(path, records)
        assert pipeline.read_metrics(path) == records

    def test_jsonl_keys_match_field_names(self, tmp_path):
        import json
        records = [pipeline.MetricsRecord(0, 0, 1, 0, 0, 0, 1, 0, -1.0, -1.0)]
        path = tmp_path / "metrics.jsonl"
        pipeline.write_metrics(path, records)
        keys = set(json.loads(path.read_text().splitlines()[0]))
        assert keys == {f.name for f in
                        dataclasses.fields(pipeline.MetricsRecord)}

    def test_logged_total_matches_weighted_combination(self):
        cfg = small_config(budget_total=120)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        _, _, records = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert records
        for r in records:
            combined = r.swap + cfg.lambda1 * r.dal + cfg.lambda2 * (r.ent
                                                                     + r.vat)
            assert abs(r.total - combined) <= 1e-9


class TestEvaluate:
    def test_untrained_encoder_near_chance_on_strong_shift(self):
        cfg = pipeline.RunConfig(pretrain_epochs=0, translation_px=2,
                                 contrast_gamma=1.5)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        acc = pipeline.evaluate(ckpt, bundle)
        assert 0.05 <= acc["target_acc"] <= 0.2

    def test_trained_model_on_zero_shift_bundle(self):
        cfg = pipeline.RunConfig(intensity_scale=1.0, noise_sigma=0.0,
                                 translation_px=0, contrast_gamma=1.0)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        acc = pipeline.evaluate(ckpt, bundle)
        assert acc["target_acc"] >= 0.95
        assert acc["source_probe_acc"] >= 0.95

    def test_probe_is_deterministic(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        assert pipeline.evaluate(ckpt, bundle) == pipeline.evaluate(ckpt,
                                                                    bundle)

    def test_probe_learns_separable_features(self):
        rng = np.random.default_rng(5)
        feats = np.concatenate([rng.normal(-2, 0.1, size=(30, 4)),
                                rng.normal(2, 0.1, size=(30, 4))])
        labels = np.repeat([0, 1], 30)
        w, b = pipeline.fit_probe(feats, labels, 2)
        assert pipeline.probe_accuracy(w, b, feats, labels) == 1.0


class TestPretrain:
    def test_swap_loss_decreases_across_seeds(self):
        for seed in range(3):
            cfg = small_config(seed=seed, pretrain_epochs=6)
            bundle = make_bundle(cfg)
            _, records = pipeline.pretrain_source(cfg, bundle.source_x)
            assert records[-1].swap < records[0].swap

    def test_zero_epochs_returns_initialization(self):
        cfg = small_config(pretrain_epochs=0)
        bundle = make_bundle(cfg)
        ckpt, records = pipeline.pretrain_source(cfg, bundle.source_x)
        assert records == []
        seeder = pipeline._phase_seeder(cfg.seed, pipeline.PHASE_PRETRAIN)
        mp = pipeline._init_models(
            cfg, np.random.default_rng(pipeline._draw_seed(seeder)),
            cfg.in_dim)
        ref = models.Checkpoint.of(mp, pipeline.config_fingerprint(cfg), 0)
        assert checkpoints_equal(ckpt, ref)

    def test_same_seed_reproduces_checkpoint_bitwise(self):
        cfg = small_config(seed=9)
        bundle = make_bundle(cfg)
        a, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        b, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        assert checkpoints_equal(a, b)

    def test_checkpoint_carries_config_fingerprint(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        assert ckpt.fingerprint == pipeline.config_fingerprint(cfg)
        assert ckpt.stage == 0

    def test_divergence_raises_with_last_good(self):
        cfg = small_config(ssl_lr=1e150)
        bundle = make_bundle(cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                pipeline.pretrain_source(cfg, bundle.source_x)
        assert isinstance(info.value.last_good, models.Checkpoint)

    def test_divergence_names_phase_stage_epoch_and_step(self):
        cfg = small_config(ssl_lr=1e305)
        bundle = make_bundle(cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                pipeline.pretrain_source(cfg, bundle.source_x)
        phase, stage, epoch, step = info.value.where
        assert (phase, stage) == ("pretraining", 0)
        assert str(info.value).startswith(
            f"pretraining diverged at stage 0, epoch {epoch}, step {step}: ")
        assert isinstance(info.value.last_good, models.Checkpoint)

    def test_non_finite_parameters_are_a_divergence(self):
        # one step per epoch: the loss is finite, the step leaves inf weights
        cfg = small_config(samples_per_class=4, pretrain_epochs=1,
                           ssl_lr=1.7e308)
        bundle = make_bundle(cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="non-finite parameter") \
                    as info:
                pipeline.pretrain_source(cfg, bundle.source_x)
        assert info.value.where == ("pretraining", 0, 0, 1)
        assert models.first_non_finite(info.value.last_good.tensors) is None

    def test_last_good_is_finite_after_later_divergence(self):
        cfg = small_config(samples_per_class=4, pretrain_epochs=3,
                           ssl_lr=1.7e308)
        bundle = make_bundle(cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                pipeline.pretrain_source(cfg, bundle.source_x)
        assert models.first_non_finite(info.value.last_good.tensors) is None

    def test_evaluator_fills_accuracy_columns(self):
        cfg = small_config(pretrain_epochs=2)
        bundle = make_bundle(cfg)
        _, records = pipeline.pretrain_source(
            cfg, bundle.source_x, evaluator=pipeline.make_evaluator(bundle))
        assert all(r.source_probe_acc >= 0.0 for r in records)
        assert all(r.target_acc >= 0.0 for r in records)

    def test_no_evaluator_leaves_sentinels(self):
        cfg = small_config(pretrain_epochs=2)
        bundle = make_bundle(cfg)
        _, records = pipeline.pretrain_source(cfg, bundle.source_x)
        assert all(r.source_probe_acc == -1.0 and r.target_acc == -1.0
                   for r in records)


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestViewStream:
    """Pretraining's views come from a forked helper process; they must be
    the views the plan names, and no exit path may leave the helper."""

    def plan(self, n, batch, seed):
        rng = np.random.default_rng(seed)
        chunks = [c for _ in range(3)
                  for c in np.array_split(rng.permutation(n),
                                          range(batch, n, batch))]
        return [(c, int(rng.integers(0, 2 ** 63))) for c in chunks]

    def test_views_equal_in_process_augmentation(self):
        x = np.random.default_rng(0).random((150, 256))
        plan = self.plan(150, 64, 1)
        assert [c.shape[0] for c, _ in plan[:3]] == [64, 64, 22]
        got = list(pipeline._stream_two_views(x, plan))
        assert len(got) == len(plan)
        for (chunk, seed), views in zip(plan, got):
            want = data.augment_two_views(x[chunk], seed)
            assert all(np.array_equal(g, w) for g, w in zip(views, want))
        assert_no_child_process()

    def test_pretraining_equals_in_process_augmentation(self, monkeypatch):
        cfg = small_config(pretrain_epochs=2)
        bundle = make_bundle(cfg)
        ckpt, records = pipeline.pretrain_source(cfg, bundle.source_x)
        assert_no_child_process()
        plans = []

        def in_process(x, plan):
            plans.append(plan)
            for chunk, seed in plan:
                yield data.augment_two_views(x[chunk], seed)

        monkeypatch.setattr(pipeline, "_stream_two_views", in_process)
        ref, ref_records = pipeline.pretrain_source(cfg, bundle.source_x)
        assert checkpoints_equal(ckpt, ref) and records == ref_records
        # the plan keeps the seeder's order: after the initialization draw,
        # per epoch the minibatches and then one seed per minibatch
        seeder = pipeline._phase_seeder(cfg.seed, pipeline.PHASE_PRETRAIN)
        pipeline._draw_seed(seeder)
        want = []
        for _ in range(cfg.pretrain_epochs):
            for chunk in pipeline._minibatches(bundle.source_x.shape[0],
                                               cfg.batch_size, seeder,
                                               cfg.min_batch):
                want.append((chunk, pipeline._draw_seed(seeder)))
        [plan] = plans
        assert len(plan) == len(want)
        assert all(np.array_equal(c, wc) and s == ws
                   for (c, s), (wc, ws) in zip(plan, want))

    def test_no_child_after_divergence(self):
        cfg = small_config(samples_per_class=4, pretrain_epochs=3,
                           ssl_lr=1.7e308)
        bundle = make_bundle(cfg)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                pipeline.pretrain_source(cfg, bundle.source_x)
        assert_no_child_process()

    def test_no_child_after_early_close(self):
        x = np.random.default_rng(0).random((300, 256))
        stream = pipeline._stream_two_views(x, self.plan(300, 64, 2))
        next(stream)
        stream.close()
        assert_no_child_process()

    def test_dead_helper_raises_its_exit_status(self, monkeypatch):
        monkeypatch.setattr(data, "augment_two_views",
                            exit_in_child(os.getpid(), 7))
        cfg = small_config(pretrain_epochs=1)
        bundle = make_bundle(cfg)
        with pytest.raises(ChildProcessError, match="exit status 7"):
            pipeline.pretrain_source(cfg, bundle.source_x)
        assert_no_child_process()

    def test_zero_embedding_is_a_placed_divergence(self):
        # a one-unit ReLU layer maps many rows to exactly zero
        cfg = small_config(encoder_widths="1", pretrain_epochs=3)
        bundle = make_bundle(cfg)
        with pytest.raises(NumericError) as info:
            pipeline.pretrain_source(cfg, bundle.source_x)
        assert info.value.where == ("pretraining", 0, 0, 0)
        assert str(info.value) == (
            "pretraining diverged at stage 0, epoch 0, step 0: the encoder "
            "maps minibatch row 33 to a zero embedding")
        assert models.first_non_finite(info.value.last_good.tensors) is None
        assert_no_child_process()

    def test_zero_embedding_in_adaptation_is_a_placed_divergence(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        ckpt.tensors["encoder.projection"][:] = 0.0
        with pytest.raises(NumericError,
                           match="maps minibatch row 0 to a zero embedding") \
                as info:
            pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert info.value.where == ("adaptation", 1, 0, 0)
        assert info.value.last_good.stage == 0


class TestAdapt:
    def test_coreset_grows_by_equal_budgets(self):
        cfg = small_config(budget_total=120)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        _, core, records = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert sorted({r.coreset_size for r in records}) == [40, 80, 120]
        assert len(core.selected) == core.budget_total == 120

    def test_budget_conservation_without_duplicates(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        _, core, _ = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert len(core.selected) == cfg.budget_total
        assert len(set(core.selected)) == len(core.selected)
        assert all(0 <= i < bundle.target_x.shape[0] for i in core.selected)

    def test_budget_above_pool_fails_before_training(self):
        cfg = small_config(budget_total=300)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        with pytest.raises(ConfigError):
            pipeline.adapt(cfg, ckpt, bundle.target_x)

    def test_source_checkpoint_bitwise_frozen(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        before = {k: v.copy() for k, v in ckpt.tensors.items()}
        pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert all(np.array_equal(ckpt.tensors[k], before[k]) for k in before)

    def test_adapt_is_bitwise_deterministic(self):
        cfg = small_config(seed=4)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        a1, c1, r1 = pipeline.adapt(cfg, ckpt, bundle.target_x)
        a2, c2, r2 = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert checkpoints_equal(a1, a2)
        assert c1.selected == c2.selected
        assert r1 == r2

    def test_final_stage_index_recorded(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        tck, core, _ = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert tck.stage == cfg.n_cycles - 1
        assert core.stage == cfg.n_cycles - 1

    def test_incompatible_checkpoint_rejected(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        with pytest.raises(ConfigError):
            pipeline.adapt(dataclasses.replace(cfg, embed_dim=16), ckpt,
                           bundle.target_x)
        with pytest.raises(ConfigError):
            pipeline.adapt(dataclasses.replace(cfg, k_prototypes=4), ckpt,
                           bundle.target_x)

    def test_degenerate_weights_reduce_to_ssl_on_random_subsets(self):
        # lambda1 = lambda2 = 0 with random acquisition: the run must still
        # complete and log pure swap totals
        cfg = small_config(lambda1=0.0, lambda2=0.0, acquisition="random")
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        _, _, records = pipeline.adapt(cfg, ckpt, bundle.target_x)
        for r in records:
            assert r.total == pytest.approx(r.swap, abs=1e-12)

    def test_loss_variants_toggle_components(self):
        cfg = small_config(loss_variant="entropy")
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        _, _, recs_ent = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert all(r.dal == 0.0 and r.vat == 0.0 for r in recs_ent)
        assert any(r.ent != 0.0 for r in recs_ent)
        cfg = small_config(loss_variant="dal_vat")
        _, _, recs_dv = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert all(r.ent == 0.0 for r in recs_dv)
        assert any(r.dal != 0.0 for r in recs_dv)

    def test_divergence_carries_last_good_checkpoint(self):
        cfg = small_config(target_lr=1e150)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert isinstance(info.value.last_good, models.Checkpoint)
        phase, stage, epoch, step = info.value.where
        assert phase == "adaptation" and 1 <= stage < cfg.n_cycles
        assert str(info.value).startswith(
            f"adaptation diverged at stage {stage}, epoch {epoch}, "
            f"step {step}: ")

    def test_non_finite_cycle_is_never_last_good(self):
        # a 30-sample core-set takes one step per epoch, so the first cycle
        # ends on a finite loss with inf weights
        cfg = small_config(target_lr=1.7e308, target_epochs=1)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert info.value.where[0] == "adaptation"
        assert models.first_non_finite(info.value.last_good.tensors) is None

    def test_non_finite_source_checkpoint_is_a_divergence(self):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        ckpt.tensors["encoder.layer1.bias"][3] = np.inf
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError,
                               match="encoder.layer1.bias at flat index 3") \
                    as info:
                pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert info.value.where == ("adaptation", 0, 0, 0)
        assert not hasattr(info.value, "last_good")

    def test_overflowing_forward_pass_is_divergence(self):
        # finite weights near 1e308 after stage 1's one step; without an
        # out_dir adapt still embeds the pool before keeping the model
        cfg = small_config(samples_per_class=8, pretrain_epochs=1,
                           target_epochs=1, rotation_epochs=1,
                           budget_total=48, kmeans_k=4, t_passes=2,
                           target_lr=1.7e308)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError,
                               match="non-finite embedding of target") as info:
                pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert info.value.where == ("adaptation", 1, 0, 1)
        last_good = info.value.last_good
        assert last_good.stage == 0
        z = models.encode(last_good.models().encoder, bundle.target_x)
        assert np.all(np.isfinite(z.data))

    def test_rotation_divergence_names_its_stage(self):
        cfg = small_config(rotation_lr=1e150)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                pipeline.adapt(cfg, ckpt, bundle.target_x)
        phase, stage, epoch, step = info.value.where
        assert (phase, stage) == ("rotation training", 0)
        assert str(info.value).startswith(
            f"rotation training diverged at stage 0, epoch {epoch}, "
            f"step {step}: non-finite loss")
        assert info.value.last_good.stage == 0

    @pytest.mark.parametrize("power_iters", [1, 2])
    def test_one_clean_target_pass_per_step(self, monkeypatch, power_iters):
        # per step: two views, one clean pass, the VAT power iterations, the
        # perturbed pass and the DAL pass; the frozen source model embeds
        # each cycle's core-set once
        cfg = small_config(vat_power_iters=power_iters)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        made, encoded = [], []
        checkpoint_models, encode = models.Checkpoint.models, models.encode

        def recording_models(self):
            mp = checkpoint_models(self)
            made.append(mp.encoder)  # adapt swaps encoders on cold starts
            return mp

        def counting_encode(params, batch, normalize=False):
            encoded.append(params)
            return encode(params, batch, normalize)

        monkeypatch.setattr(models.Checkpoint, "models", recording_models)
        monkeypatch.setattr(models, "encode", counting_encode)
        pipeline.adapt(cfg, ckpt, bundle.target_x)
        n_stages = cfg.n_cycles - 1
        steps = cfg.target_epochs * sum(
            pipeline._steps_per_epoch(stage * cfg.budget_total // n_stages,
                                      cfg.batch_size, cfg.k_prototypes)
            for stage in range(1, n_stages + 1))
        source = made[0]  # adapt copies the frozen source model first
        assert sum(p is source for p in encoded) == n_stages
        # plus two embeddings per cycle: the remaining pool for scoring,
        # and the whole pool for the finite-embedding check
        assert sum(any(p is t for t in made[1:]) for p in encoded) \
            == steps * (5 + power_iters) + 2 * n_stages

    def test_embedding_dumps_per_stage(self, tmp_path):
        cfg = small_config()
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        pipeline.adapt(cfg, ckpt, bundle.target_x,
                       source_x=bundle.source_x, out_dir=tmp_path)
        for stage in range(1, cfg.n_cycles):
            with open(tmp_path / f"embeds_stage{stage}.bin", "rb") as f:
                container.check_magic(f, container.MAGIC_EMBEDDINGS)
                dump = container.read_tensor_map(f)
            n_src = bundle.source_x.shape[0]
            n_tgt = bundle.target_x.shape[0]
            assert dump["source_embeddings"].shape == (n_src, cfg.embed_dim)
            assert dump["target_embeddings"].shape == (n_tgt, cfg.embed_dim)
            np.testing.assert_array_equal(
                dump["domain_tags"],
                np.concatenate([np.zeros(n_src), np.ones(n_tgt)]))

    def test_static_partition_covers_budget_once(self):
        cfg = small_config(rescore_each_cycle=False)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        _, core, _ = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert len(core.selected) == cfg.budget_total
        assert len(set(core.selected)) == len(core.selected)

    def test_warm_start_changes_trajectory_not_contract(self):
        cfg = small_config(warm_start=True)
        bundle = make_bundle(cfg)
        ckpt, _ = pipeline.pretrain_source(cfg, bundle.source_x)
        tck, core, records = pipeline.adapt(cfg, ckpt, bundle.target_x)
        assert len(core.selected) == cfg.budget_total
        assert len(records) == (cfg.n_cycles - 1) * cfg.target_epochs

    def test_every_source_tensor_reaches_the_outputs(self):
        # a checkpoint tensor whose perturbation changes neither the target
        # checkpoint nor the core-set is state that nothing reads
        cfg = small_config(samples_per_class=8, encoder_widths="16",
                           pretrain_epochs=1, target_epochs=1,
                           rotation_epochs=1, budget_total=48, kmeans_k=4,
                           t_passes=2)
        bundle = make_bundle(cfg)
        source, _ = pipeline.pretrain_source(cfg, bundle.source_x)

        def adapted(tensors):
            ckpt, core, _ = pipeline.adapt(
                cfg, models.Checkpoint(tensors, source.fingerprint, 0),
                bundle.target_x)
            return ckpt, core.selected

        base_ckpt, base_core = adapted(source.tensors)
        rng = np.random.default_rng(0)
        unread = []
        for name, a in source.tensors.items():
            perturbed = a + rng.normal(0.0, 1e-3, size=a.shape)
            ckpt, core = adapted({**source.tensors, name: perturbed})
            if core == base_core and checkpoints_equal(ckpt, base_ckpt):
                unread.append(name)
        assert unread == []


def traced_peak(fn, *args):
    """Bytes that fn(*args) allocates at its peak, NumPy arrays included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """Rotation training and pool scoring never hold an array that grows
    with 4N rows or with N x k x p, for a pool of N rows of d pixels."""

    n = 2000

    def models_and_pool(self, **kw):
        cfg = pipeline.RunConfig(encoder_widths="16", rotation_epochs=1,
                                 kmeans_k=32, **kw)
        pool = np.random.default_rng(0).random((self.n, cfg.in_dim))
        mp = pipeline._init_models(cfg, np.random.default_rng(1), cfg.in_dim)
        rot = models.init_rotation_classifier(
            np.random.default_rng(4), mp.encoder, cfg.dropout_rate)
        return cfg, pool, mp, rot

    def test_rotation_training_holds_less_than_the_pool(self):
        cfg, pool, _, rot = self.models_and_pool(embed_dim=8)
        peak = traced_peak(pipeline._train_rotation, cfg, rot, pool,
                           np.random.default_rng(2), 0)
        assert peak < self.n * cfg.in_dim * 8

    def test_scoring_holds_less_than_the_distance_array(self):
        cfg, pool, mp, rot = self.models_and_pool()
        peak = traced_peak(pipeline._score_indices, cfg, mp, rot, pool,
                           list(range(self.n)), np.random.default_rng(3))
        assert peak < self.n * cfg.kmeans_k * cfg.embed_dim * 8
