"""Property test: every config the parser accepts ends the chain
gen -> pretrain -> adapt -> eval in a documented way.

Each command either succeeds (exit 0, nothing on standard error), refuses
its input (exit 2, one `error:` line, no output written) or places a
divergence (exit 3, the error line and the saved-checkpoint line, with a
finite checkpoint saved). No command ends in a traceback or a warning.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from a3 import active, cli, models, pipeline

ENDINGS = settings(max_examples=400, deadline=None, derandomize=True,
                   database=None)

# Most values let the chain run on; the rest make it diverge or refuse.
WIDTHS = st.sampled_from(["16", "16,16", "8", "4,8", "2", "1", "16,1"])
LR = st.sampled_from([0.01, 0.03, 0.1, 0.3, 1e6, 1.7e308])
# offsets from the smallest accepted value; -1 is refused
ABOVE_MIN = st.sampled_from([0, 1, 3, 8, 12, -1])


@st.composite
def small_configs(draw):
    """Flag values for a config of at most 100 rows per domain, side 8 and
    one epoch per phase, with every enum value. The per-cycle budget and
    the batch size sit near the smallest that the config accepts, and some
    lie one below it."""
    n_classes = draw(st.integers(2, 5))
    k_prototypes = draw(st.integers(2, 8))
    min_batch = max(2, k_prototypes)
    n_cycles = draw(st.integers(2, 4))
    per_cycle = min_batch + draw(ABOVE_MIN)
    return {
        "n_classes": n_classes,
        "samples_per_class": draw(st.sampled_from(
            [100 // n_classes, 20, 10, 3, 1])),
        "image_side": 8,
        "noise_sigma": draw(st.sampled_from([0.0, 0.15, 1.0])),
        "translation_px": draw(st.integers(0, 3)),
        "data_seed": draw(st.integers(0, 2)),
        "encoder_widths": draw(WIDTHS),
        "embed_dim": draw(st.sampled_from([1, 2, 4, 8])),
        "k_prototypes": k_prototypes,
        "domain_hidden": draw(st.sampled_from([1, 4])),
        "dropout_rate": draw(st.sampled_from([0.0, 0.25, 0.9])),
        "tau": draw(st.sampled_from([0.1, 0.5, 1.0, 0.001])),
        "sinkhorn_iters": draw(st.integers(1, 3)),
        "lambda1": draw(st.sampled_from([0.0, 0.25, 10.0])),
        "lambda2": draw(st.sampled_from([0.0, 0.02, 10.0])),
        "vat_eps_radius": draw(st.sampled_from([1.0, 100.0])),
        "vat_power_iters": draw(st.integers(1, 2)),
        "loss_variant": draw(st.sampled_from(pipeline.LOSS_VARIANTS)),
        "acquisition": draw(st.sampled_from(active.SCORING_MODES)),
        "beta": draw(st.sampled_from([1e-3, 1.0, 100.0])),
        "t_passes": draw(st.integers(2, 3)),
        "kmeans_k": draw(st.integers(1, 8)),
        "kmeans_max_iter": draw(st.integers(1, 3)),
        "budget_total": per_cycle * (n_cycles - 1),
        "n_cycles": n_cycles,
        "rescore_each_cycle": draw(st.booleans()),
        "pretrain_epochs": 1,
        "target_epochs": 1,
        "rotation_epochs": 1,
        "batch_size": min_batch + 2 * draw(ABOVE_MIN),
        "ssl_lr": draw(LR),
        "target_lr": draw(LR),
        "rotation_lr": draw(LR),
        "momentum": draw(st.sampled_from([0.0, 0.9])),
        "warm_start": draw(st.booleans()),
        "freeze_prototypes": draw(st.booleans()),
        "seed": draw(st.integers(0, 2)),
    }


def flags(config: dict) -> list[str]:
    out = []
    for key, value in config.items():
        text = str(value).lower() if isinstance(value, bool) else str(value)
        out += ["--" + key.replace("_", "-"), text]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """cli.main's exit code, standard output and standard error; a warning
    fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, out.getvalue(), err.getvalue()


def documented_ending(argv: list[str], written: Path,
                      saved: Path | None) -> bool:
    """Runs one command and checks that it ends in a documented way;
    True when it succeeded. `written` is what a refused command must not
    leave behind, `saved` where a divergence saves its checkpoint."""
    code, out, err = run(argv)
    lines = err.splitlines()
    if code == 0:
        assert err == ""
        return True
    assert out == "", out
    assert lines and lines[0].startswith("error: "), err
    if code == 2:
        assert len(lines) == 1, err
        assert not written.exists()
        return False
    assert code == 3 and saved is not None, (code, err)
    assert lines[1:] == [f"last finite checkpoint saved to {saved}"], err
    ckpt = models.load_checkpoint(saved)
    assert models.first_non_finite(ckpt.tensors) is None
    return False


@ENDINGS
@given(small_configs())
def test_every_small_config_ends_in_a_documented_way(config):
    common = flags(config)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bundle = root / "bundle.bin"
        source, target = root / "source", root / "target"
        if not documented_ending(["gen", "--out", str(bundle), *common],
                                 bundle, None):
            return
        with_bundle = ["--bundle", str(bundle), *common]
        if not documented_ending(
                ["pretrain", "--out", str(source), *with_bundle], source,
                source / cli.SOURCE_CKPT_NAME):
            return
        if not documented_ending(
                ["adapt", "--source-ckpt", str(source / cli.SOURCE_CKPT_NAME),
                 "--out", str(target), *with_bundle], target,
                target / cli.TARGET_CKPT_NAME):
            return
        code, out, err = run(["eval", "--ckpt",
                              str(target / cli.TARGET_CKPT_NAME),
                              *with_bundle])
        assert (code, err) == (0, ""), err
        accs = [float(line.split(" = ")[1]) for line in out.splitlines()]
        assert len(accs) == 2 and all(np.isfinite(accs))
