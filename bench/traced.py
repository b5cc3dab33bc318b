"""Run one `a3` command with a span around each layer function.

Usage: python3 bench/traced.py TRACE_JSON COMMAND [a3 options...]

The spans are installed from outside the package, by replacing module
attributes before `a3.cli.main` runs, so the package itself is untouched
and the untraced benchmark runs never load this file. For every layer the
trace records inclusive seconds, self seconds (inclusive minus the time of
the spans it called directly), calls, rows or bytes where the call takes a
batch or a file, and how far the process's peak RSS rose while the layer
was the innermost span running (rss_growth_mb) and while it ran at all,
callees included (rss_growth_incl_mb). The interpreter's cyclic
collections are recorded through gc.callbacks. A function missing from its
module is listed as absent and the command still runs. The trace is written
when the command ends, also when it fails.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import resource
import sys
import time

# layer name, module, attribute (Class.method for methods), index of the
# positional argument that holds the batch (rows) or the file (bytes)
LAYERS = (
    ("data.augment", "a3.data", "augment_two_views", 0, None),
    ("data.generate", "a3.data", "generate_domain_pair", None, None),
    ("data.bundle_io", "a3.data", "save_bundle", None, 0),
    ("data.bundle_io", "a3.data", "load_bundle", None, 0),
    ("autodiff.backward", "a3.autodiff", "backward", None, None),
    ("autodiff.transpose", "a3.autodiff", "transpose", None, None),
    ("models.encode", "a3.models", "encode", 1, None),
    ("models.checkpoint_io", "a3.models", "save_checkpoint", None, 0),
    ("models.checkpoint_io", "a3.models", "load_checkpoint", None, 0),
    ("pipeline.dump_embeddings", "a3.pipeline", "dump_embeddings", None, None),
    ("ssl_swap.swap_loss", "a3.ssl_swap", "swap_loss", None, None),
    ("ssl_swap.sinkhorn", "a3.ssl_swap", "sinkhorn_codes", None, None),
    ("alignment.vat", "a3.alignment", "vat_perturbation", None, None),
    ("alignment.vat", "a3.alignment", "vat_loss", None, None),
    ("alignment.dal", "a3.alignment", "dal_loss", None, None),
    ("alignment.entropy", "a3.alignment", "entropy_loss", None, None),
    ("pipeline.evaluate", "a3.pipeline", "evaluate", None, None),
    ("pipeline.sgd_step", "a3.pipeline", "Sgd.step", None, None),
    ("pipeline.score", "a3.pipeline", "_score_indices", None, None),
    ("active.mc_dropout", "a3.active", "mc_dropout_probs", 1, None),
    ("active.bald", "a3.active", "bald_mutual_info", None, None),
    ("active.kmeans", "a3.active", "kmeans", 0, None),
    ("pipeline.train_rotation", "a3.pipeline", "_train_rotation", None, None),
    ("active.rotation_pool", "a3.active", "build_rotation_pool", 0, None),
)
GC_FIELDS = ("collections", "s", "collected")


def layer_fields() -> dict[str, list[str]]:
    """Metric fields of each layer, in table order."""
    fields: dict[str, list[str]] = {}
    for layer, _, _, rows_arg, path_arg in LAYERS:
        names = fields.setdefault(
            layer, ["s", "self_s", "calls", "rss_growth_mb",
                    "rss_growth_incl_mb"])
        if rows_arg is not None and "rows" not in names:
            names.append("rows")
        if path_arg is not None and "bytes" not in names:
            names.append("bytes")
    return fields


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Per-layer totals of the spans of one process."""

    def __init__(self) -> None:
        self.totals = {layer: dict.fromkeys(names, 0)
                       for layer, names in layer_fields().items()}
        self.absent: list[str] = []
        self.gc = dict.fromkeys(GC_FIELDS, 0)
        # [layer, start, seconds of children, peak RSS at entry]
        self._stack: list[list] = []
        self._rss_mark = _peak_rss_kib()
        self._gc_start = 0.0

    def install(self) -> None:
        for layer, module_name, attr, rows_arg, path_arg in LAYERS:
            try:
                owner = importlib.import_module(module_name)
                *outer, name = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self._wrap(layer, fn, rows_arg, path_arg))

    def _settle_rss(self) -> int:
        """Credit the peak-RSS rise since the last span boundary to the
        innermost span; returns the current peak in KiB."""
        now = _peak_rss_kib()
        if self._stack and now > self._rss_mark:
            top = self.totals[self._stack[-1][0]]
            top["rss_growth_mb"] += (now - self._rss_mark) / 1024.0
        self._rss_mark = now
        return now

    def _wrap(self, layer, fn, rows_arg, path_arg):
        tot = self.totals[layer]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0, 0.0, self._settle_rss()]
            self._stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - frame[1]
                tot["rss_growth_incl_mb"] += \
                    (self._settle_rss() - frame[3]) / 1024.0
                self._stack.pop()
                tot["s"] += dt
                tot["self_s"] += dt - frame[2]
                tot["calls"] += 1
                if self._stack:
                    self._stack[-1][2] += dt
            if rows_arg is not None and len(args) > rows_arg:
                tot["rows"] += args[rows_arg].shape[0]
            if path_arg is not None and len(args) > path_arg:
                tot["bytes"] += os.path.getsize(args[path_arg])
            return out

        return span

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.gc["s"] += time.perf_counter() - self._gc_start
        self.gc["collections"] += 1
        self.gc["collected"] += info["collected"]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE_JSON COMMAND [a3 options...]",
              file=sys.stderr)
        return 2
    trace_path, a3_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from a3 import cli

    gc.callbacks.append(tracer.on_gc)
    try:
        return cli.main(a3_args)
    finally:
        gc.callbacks.remove(tracer.on_gc)
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"layers": tracer.totals, "gc": tracer.gc,
                       "absent": tracer.absent}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
