"""End-to-end command-line tests: exit codes, produced files, and the
workflow chain gen -> pretrain -> adapt -> eval -> report."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from a3 import cli, container, data, models, pipeline
from helpers import exit_in_child

TINY = ["--samples-per-class", "20", "--pretrain-epochs", "3",
        "--target-epochs", "2", "--rotation-epochs", "2",
        "--budget-total", "90", "--n-cycles", "4", "--kmeans-k", "8",
        "--t-passes", "4"]


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """A bundle plus source and target artifacts shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["gen", "--out", str(root / "bundle.bin")] + TINY) == 0
    assert cli.main(["pretrain", "--out", str(root),
                     "--bundle", str(root / "bundle.bin")] + TINY) == 0
    assert cli.main(["adapt", "--source-ckpt", str(root / "source_ckpt.bin"),
                     "--out", str(root),
                     "--bundle", str(root / "bundle.bin")] + TINY) == 0
    return root


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["gen", "--out", "x.bin", "--frobnicate", "7"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_adapt_requires_source_checkpoint(self, tmp_path):
        assert cli.main(["adapt", "--out", str(tmp_path)]) == 2

    def test_eval_missing_checkpoint(self, capsys):
        assert cli.main(["eval", "--ckpt", "missing.bin"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["gen", "--out", str(tmp_path / "b.bin"),
                       "--seed", "nope"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_unknown_config_file_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate = 0.1\n", encoding="utf-8")
        rc = cli.main(["gen", "--out", str(tmp_path / "b.bin"),
                       "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("name,dims", [
        (b"w", (2 ** 62, 2 ** 62)),
        (b"\xff\xfe", (1,)),
    ], ids=["oversized_dims", "non_utf8_name"])
    def test_hostile_checkpoint_is_format_error(self, tmp_path, name, dims):
        path = tmp_path / "hostile.bin"
        path.write_bytes(
            container.MAGIC_CHECKPOINT + struct.pack("<Q", 1)
            + struct.pack("<I", len(name)) + name
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
            + b"\x00" * 8)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "a3.cli", "eval", "--ckpt", str(path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_bad_bundle_sidecar_is_format_error(self, workdir, tmp_path):
        # the gen bundle, rewritten with a spec sidecar that lacks "shift"
        spec = data.load_bundle(workdir / "bundle.bin").spec
        fields = dataclasses.asdict(spec)
        del fields["shift"]
        proc = eval_with_spec(workdir, tmp_path, fields)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "KeyError" in proc.stderr and "Traceback" not in proc.stderr

    def test_bundle_spec_missing_shift_keys_is_format_error(self, workdir,
                                                            tmp_path):
        # left out, translation_px and contrast_gamma have no value to
        # fall back on
        spec = data.load_bundle(workdir / "bundle.bin").spec
        fields = dataclasses.asdict(spec)
        shift = fields["shift"]
        del shift["translation_px"], shift["contrast_gamma"]
        proc = eval_with_spec(workdir, tmp_path, fields)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: bad bundle spec at byte offset ")
        assert "'translation_px' and 'contrast_gamma'" in proc.stderr

    @pytest.mark.parametrize("flag,value,message", [
        ("--contrast-gamma", "0", "contrast_gamma must be positive, got 0.0"),
        ("--image-side", "7", "image_side must be >= 8, got 7"),
        ("--n-classes", "1", "n_classes must be >= 2, got 1"),
    ], ids=["contrast_gamma", "image_side", "n_classes"])
    def test_eval_refuses_a_setting_gen_refuses(self, workdir, flag, value,
                                                message):
        proc = run_cli(["eval", "--ckpt", str(workdir / "target_ckpt.bin"),
                        "--bundle", str(workdir / "bundle.bin"), flag, value])
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("command,content", [
        ("report", b"not json\n"),
        ("report", b'{"stage": 1}\n'),
        ("report", b"[1,2]\n"),
        ("report", None),
        ("gen", b"seed = \xff\n"),
        ("gen", None),
    ], ids=["metrics_not_json", "metrics_missing_fields", "metrics_not_object",
            "metrics_directory", "config_not_utf8", "config_directory"])
    def test_bad_input_file_is_error_line(self, tmp_path, command, content):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        if command == "report":
            argv = ["report", "--metrics", str(path)]
        else:
            argv = ["gen", "--out", str(tmp_path / "b.bin"), "--config",
                    str(path)]
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "a3.cli"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_finite_setting_refused_before_any_work(self, tmp_path):
        out = tmp_path / "run"
        proc = run_cli(["pretrain", "--out", str(out), "--tau", "inf"])
        assert proc.returncode == 2
        assert proc.stderr == "error: tau must be finite, got inf\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["pretrain", "--samples-per-class", "1"],
         "error: source_x has 10 rows, fewer than the max(2, k_prototypes) "
         "= 16 of one training step\n"),
        (["adapt", "--samples-per-class", "8", "--budget-total", "30",
          "--n-cycles", "4", "--kmeans-k", "4", "--t-passes", "2",
          "--pretrain-epochs", "1", "--target-epochs", "1",
          "--rotation-epochs", "1"],
         "error: budget_total 30 gives 10 samples per cycle, fewer than "
         "max(2, k_prototypes) = 16\n"),
    ], ids=["pretrain_10_rows", "adapt_10_row_cycle"])
    def test_phase_without_a_step_refused_before_any_work(
            self, workdir, tmp_path, argv, message):
        out = tmp_path / "run"
        if argv[0] == "adapt":
            argv = argv + ["--source-ckpt", str(workdir / "source_ckpt.bin")]
        proc = run_cli(argv + ["--out", str(out)])
        assert proc.returncode == 2
        assert proc.stderr == message
        assert proc.stdout == ""
        assert not out.exists()

    def test_dead_augmentation_helper_is_error_line(self, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(data, "augment_two_views",
                            exit_in_child(os.getpid(), 5))
        assert cli.main(["pretrain", "--out", str(tmp_path / "run")]
                        + TINY) == 2
        assert capsys.readouterr().err == (
            "error: the augmentation helper process ended early with exit "
            "status 5\n")
        assert not (tmp_path / "run").exists()

    def test_numeric_abort_saves_last_good(self, tmp_path, capsys):
        with np.errstate(all="ignore"):
            rc = cli.main(["pretrain", "--out", str(tmp_path),
                           "--ssl-lr", "1e150"] + TINY)
        assert rc == 3
        capsys.readouterr()
        ckpt = models.load_checkpoint(tmp_path / "source_ckpt.bin")
        assert all(np.all(np.isfinite(t)) for t in ckpt.tensors.values())


def eval_with_spec(workdir: Path, tmp_path: Path,
                   fields: dict) -> subprocess.CompletedProcess:
    """`a3 eval` on the gen bundle, rewritten with the given spec fields."""
    good = data.load_bundle(workdir / "bundle.bin")
    sidecar = json.dumps(fields).encode("utf-8")
    path = tmp_path / "respec.bin"
    with open(path, "wb") as f:
        f.write(container.MAGIC_DATASET)
        container.write_tensor_map(f, {
            "source_x": good.source_x, "source_y": good.source_y,
            "target_x": good.target_x, "target_y_eval": good.target_y_eval})
        f.write(struct.pack("<Q", len(sidecar)) + sidecar)
    return run_cli(["eval", "--ckpt", str(workdir / "target_ckpt.bin"),
                    "--bundle", str(path)] + TINY)


def run_cli(argv: list[str], warnings: str = "ignore::RuntimeWarning"
            ) -> subprocess.CompletedProcess:
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-W", warnings, "-m", "a3.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=120)


def tensors_in(path: Path) -> dict:
    """The tensors of a checkpoint file, read without load_checkpoint."""
    with open(path, "rb") as f:
        container.check_magic(f, container.MAGIC_CHECKPOINT)
        return container.read_tensor_map(f)


class TestNonFiniteCheckpoints:
    # one step per epoch: the loss stays finite, the step leaves inf weights
    DIVERGING = ["--samples-per-class", "4", "--ssl-lr", "1.7e308"]

    @pytest.mark.parametrize("epochs", ["1", "3"])
    def test_pretrain_never_saves_non_finite_last_good(self, tmp_path,
                                                       epochs):
        proc = run_cli(["pretrain", "--out", str(tmp_path),
                        "--pretrain-epochs", epochs] + self.DIVERGING)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: pretraining diverged at ")
        assert "last finite checkpoint saved" in proc.stderr
        saved = tensors_in(tmp_path / "source_ckpt.bin")
        assert models.first_non_finite(saved) is None

    @pytest.fixture
    def non_finite_ckpt(self, workdir, tmp_path):
        ckpt = models.load_checkpoint(workdir / "source_ckpt.bin")
        ckpt.tensors["encoder.layer1.bias"][5] = np.nan
        path = tmp_path / "non_finite.bin"
        models.save_checkpoint(path, ckpt)
        return path

    def test_eval_rejects_non_finite_checkpoint(self, workdir,
                                                non_finite_ckpt):
        proc = run_cli(["eval", "--ckpt", str(non_finite_ckpt),
                        "--bundle", str(workdir / "bundle.bin")] + TINY)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: checkpoint tensor 'encoder.layer1.bias' has a non-finite "
            "value at flat index 5\n")
        assert proc.stdout == ""

    def test_adapt_rejects_non_finite_source(self, workdir, tmp_path,
                                             non_finite_ckpt):
        out = tmp_path / "adapted"
        proc = run_cli(["adapt", "--source-ckpt", str(non_finite_ckpt),
                        "--out", str(out),
                        "--bundle", str(workdir / "bundle.bin")] + TINY)
        assert proc.returncode == 2
        assert "'encoder.layer1.bias'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "target_ckpt.bin").exists()


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("name,edit", [
        ("rotation.dropout_rate", lambda t: t.update(
            {"rotation.dropout_rate": np.array([0.25, 0.25])})),
        ("rotation.dropout_rate", lambda t: t.pop("rotation.dropout_rate")),
        ("prototypes.vectors", lambda t: t.update(
            {"prototypes.vectors": t["prototypes.vectors"].reshape(-1)})),
        ("domain.fc.weight",
         lambda t: t.update({"domain.fc.weight": np.zeros((64, 5))})),
        ("domain.fc.bias", lambda t: t.pop("domain.fc.bias")),
    ], ids=["dropout_rate_2_elements", "dropout_rate_missing",
            "prototypes_1d", "domain_fc_weight_64x5",
            "domain_fc_bias_missing"])
    def test_eval_and_adapt_exit_2_naming_the_tensor(self, workdir, tmp_path,
                                                     name, edit):
        tensors = tensors_in(workdir / "source_ckpt.bin")
        edit(tensors)
        path = tmp_path / "malformed.bin"
        models.save_checkpoint(path, models.Checkpoint(tensors))
        bundle = ["--bundle", str(workdir / "bundle.bin")] + TINY
        out = tmp_path / "adapted"
        for argv in (["eval", "--ckpt", str(path)],
                     ["adapt", "--source-ckpt", str(path), "--out",
                      str(out)]):
            proc = run_cli(argv + bundle)
            assert proc.returncode == 2
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                proc.stderr
            assert f"'{name}'" in lines[0]
            assert proc.stdout == ""
        assert not out.exists()


class TestDivergenceStderr:
    """A numeric abort prints the error line and the saved-checkpoint line,
    and no NumPy warning, with Python's default warning filters."""

    def assert_two_lines(self, proc, phase, saved):
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 2 and proc.stderr.endswith("\n"), proc.stderr
        assert lines[0].startswith(f"error: {phase} diverged at stage ")
        assert lines[1] == f"last finite checkpoint saved to {saved}"

    def test_pretrain(self, tmp_path):
        # the output directory is made only to hold the saved checkpoint
        out = tmp_path / "run"
        proc = run_cli(["pretrain", "--out", str(out),
                        "--samples-per-class", "4", "--pretrain-epochs", "3",
                        "--ssl-lr", "1.7e308"], warnings="default")
        self.assert_two_lines(proc, "pretraining", out / "source_ckpt.bin")

    def test_pretrain_underflowing_softmax(self, tmp_path):
        # at tau = 1e-3 the softmax underflows to 0, whose log is -inf
        out = tmp_path / "run"
        proc = run_cli(["pretrain", "--out", str(out), "--tau", "0.001",
                        "--pretrain-epochs", "1", "--seed", "0"],
                       warnings="default")
        self.assert_two_lines(proc, "pretraining", out / "source_ckpt.bin")
        assert proc.stderr.splitlines()[0].endswith(": non-finite loss inf")

    def test_pretrain_zero_embedding(self, tmp_path):
        # a one-unit ReLU layer maps rows to exactly zero
        out = tmp_path / "run"
        proc = run_cli(["pretrain", "--out", str(out), "--encoder-widths", "1",
                        "--pretrain-epochs", "1", "--seed", "0"],
                       warnings="default")
        self.assert_two_lines(proc, "pretraining", out / "source_ckpt.bin")
        assert "to a zero embedding" in proc.stderr
        saved = models.load_checkpoint(out / "source_ckpt.bin")
        assert models.first_non_finite(saved.tensors) is None

    def test_adapt(self, workdir, tmp_path):
        proc = run_cli(["adapt", "--source-ckpt",
                        str(workdir / "source_ckpt.bin"), "--out",
                        str(tmp_path), "--bundle", str(workdir / "bundle.bin"),
                        "--target-lr", "1.7e308"] + TINY, warnings="default")
        self.assert_two_lines(proc, "adaptation",
                              tmp_path / "target_ckpt.bin")

    def test_ablate_pretraining(self, tmp_path):
        # pretraining's last good checkpoint is saved beside the variants'
        out = tmp_path / "abl"
        proc = run_cli(["ablate", "--variants", "hybrid", "--out", str(out),
                        "--samples-per-class", "4", "--pretrain-epochs", "3",
                        "--ssl-lr", "1.7e308", "--budget-total", "36",
                        "--n-cycles", "4", "--kmeans-k", "4",
                        "--k-prototypes", "4", "--batch-size", "8"],
                       warnings="default")
        self.assert_two_lines(proc, "pretraining",
                              out / "last_good_source.bin")
        assert [p.name for p in out.iterdir()] == ["last_good_source.bin"]
        saved = models.load_checkpoint(out / "last_good_source.bin")
        assert all(np.all(np.isfinite(t)) for t in saved.tensors.values())

    def test_adapt_overflowing_forward_pass(self, tmp_path):
        # the last step leaves finite weights near 1e308 whose forward pass
        # overflows; that model must not become the last good one
        flags = ["--samples-per-class", "8", "--pretrain-epochs", "1",
                 "--target-epochs", "1", "--rotation-epochs", "1",
                 "--budget-total", "48", "--n-cycles", "4", "--kmeans-k", "4",
                 "--t-passes", "2"]
        assert run_cli(["pretrain", "--out", str(tmp_path)]
                       + flags).returncode == 0
        out = tmp_path / "adapted"
        proc = run_cli(["adapt", "--source-ckpt",
                        str(tmp_path / "source_ckpt.bin"), "--out", str(out),
                        "--target-lr", "1.7e308"] + flags, warnings="default")
        self.assert_two_lines(proc, "adaptation", out / "target_ckpt.bin")
        assert "non-finite embedding of target sample" in proc.stderr
        saved = models.load_checkpoint(out / "target_ckpt.bin")
        cfg = pipeline.config_from_pairs(
            {k[2:].replace("-", "_"): v for k, v in zip(flags[::2],
                                                        flags[1::2])})
        bundle = data.generate_domain_pair(cfg.domain_spec())
        z = models.encode(saved.models().encoder, bundle.target_x)
        assert np.all(np.isfinite(z.data))


class TestWorkflow:
    def test_gen_writes_loadable_bundle(self, workdir):
        bundle = data.load_bundle(workdir / "bundle.bin")
        assert bundle.source_x.shape == (200, 256)
        assert bundle.target_x.shape == (200, 256)

    def test_pretrain_outputs(self, workdir):
        ckpt = models.load_checkpoint(workdir / "source_ckpt.bin")
        assert ckpt.stage == 0
        records = pipeline.read_metrics(workdir / "metrics_pretrain.jsonl")
        assert len(records) == 3
        assert all(r.stage == 0 for r in records)

    def test_adapt_outputs(self, workdir):
        ckpt = models.load_checkpoint(workdir / "target_ckpt.bin")
        assert ckpt.stage == 3
        header, *indices = (workdir / "coreset.txt").read_text(
            encoding="utf-8").splitlines()
        assert header == "# a3-coreset v1 stage=3 budget=90"
        assert len(indices) == 90
        assert len({int(i) for i in indices}) == 90
        records = pipeline.read_metrics(workdir / "metrics_adapt.jsonl")
        assert sorted({r.stage for r in records}) == [1, 2, 3]
        for stage in (1, 2, 3):
            assert (workdir / f"embeds_stage{stage}.bin").exists()

    def test_eval_prints_both_accuracies(self, workdir, capsys):
        rc = cli.main(["eval", "--ckpt", str(workdir / "target_ckpt.bin"),
                       "--bundle", str(workdir / "bundle.bin")] + TINY)
        assert rc == 0
        out = capsys.readouterr().out
        assert "source_probe_acc" in out and "target_acc" in out

    def test_report_rows_per_stage(self, workdir, capsys):
        rc = cli.main(["report", "--metrics",
                       str(workdir / "metrics_adapt.jsonl")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        data_rows = [ln for ln in lines if ln.strip()
                     and ln.strip()[0].isdigit()]
        assert len(data_rows) == 3

    def test_flags_override_config_file(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples_per_class = 20\nseed = 1\n", encoding="utf-8")
        out = tmp_path / "flagged.bin"
        assert cli.main(["gen", "--out", str(out), "--config", str(cfg),
                         "--seed", "7"]) == 0
        capsys.readouterr()
        want = data.generate_domain_pair(
            pipeline.RunConfig(samples_per_class=20, seed=7).domain_spec())
        got = data.load_bundle(out)
        np.testing.assert_array_equal(got.source_x, want.source_x)

    def test_metrics_lines_are_json_objects(self, workdir):
        text = (workdir / "metrics_adapt.jsonl").read_text(encoding="utf-8")
        for line in text.splitlines():
            assert isinstance(json.loads(line), dict)


class TestAblate:
    def test_two_variants_emit_files_and_rows(self, workdir, tmp_path,
                                              capsys):
        rc = cli.main(["ablate", "--variants", "hybrid,random",
                       "--out", str(tmp_path),
                       "--bundle", str(workdir / "bundle.bin")] + TINY)
        assert rc == 0
        assert (tmp_path / "metrics_hybrid.jsonl").exists()
        assert (tmp_path / "metrics_random.jsonl").exists()
        out = capsys.readouterr().out
        for row in ("source-only", "hybrid", "random"):
            assert any(ln.startswith(row) for ln in out.splitlines())

    @pytest.mark.parametrize("bad_bundle,flags,message", [
        (True, [], "error: bad magic at byte offset 0"),
        (False, ["--samples-per-class", "4", "--budget-total", "48",
                 "--n-cycles", "4", "--kmeans-k", "4", "--k-prototypes", "4",
                 "--batch-size", "8", "--pretrain-epochs", "1"],
         "error: budget_total 48 exceeds target pool size 40"),
    ], ids=["bad_bundle", "budget_above_pool"])
    def test_refusal_leaves_no_output_directory(self, tmp_path, bad_bundle,
                                                flags, message):
        if bad_bundle:
            (tmp_path / "bad.bin").write_bytes(b"garbage")
            flags = ["--bundle", str(tmp_path / "bad.bin")]
        out = tmp_path / "abl"
        proc = run_cli(["ablate", "--variants", "hybrid", "--out", str(out)]
                       + flags)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message)
        assert not out.exists()

    def test_pool_refused_before_pretraining(self, tmp_path, monkeypatch,
                                             capsys):
        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretrain_source was called")

        monkeypatch.setattr(pipeline, "pretrain_source", no_pretraining)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["ablate", "--variants", "hybrid", "--out", "abl3",
                       "--samples-per-class", "4", "--budget-total", "48",
                       "--n-cycles", "4", "--k-prototypes", "4",
                       "--batch-size", "8", "--kmeans-k", "4",
                       "--pretrain-epochs", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: budget_total 48 exceeds target pool size 40"]
        assert not (tmp_path / "abl3").exists()

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        rc = cli.main(["ablate", "--variants", "hybrid,blorp",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "blorp" in capsys.readouterr().err
