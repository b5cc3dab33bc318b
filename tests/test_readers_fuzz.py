"""Property tests for the file readers: truncated files, flipped bits and
oversized header fields.

The rule for every reader and every input: it returns, or it raises an
A3Error (which the CLI turns into exit code 2); no other exception escapes.
A binary file cut short anywhere must raise.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from a3 import data, models, pipeline
from a3.container import MAGIC_CHECKPOINT, MAGIC_DATASET
from a3.errors import A3Error

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def bundle_bytes(tmp_path) -> bytes:
    shift = data.ShiftSpec(intensity_scale=0.7, noise_sigma=0.15,
                           translation_px=2, contrast_gamma=1.5)
    spec = data.DomainSpec(n_classes=2, samples_per_class=2, image_side=8,
                           shift=shift, seed=4)
    path = tmp_path / "bundle.bin"
    data.save_bundle(path, data.generate_domain_pair(spec))
    return path.read_bytes()


def checkpoint_bytes(tmp_path) -> bytes:
    rng = np.random.default_rng(0)
    enc = models.init_encoder(rng, 16, widths=(6,), embed_dim=4)
    mp = models.ModelParams(
        encoder=enc, prototypes=models.init_prototypes(rng, 3, 4),
        domain=models.init_domain_classifier(rng, 4, hidden=3),
        rotation=models.init_rotation_classifier(rng, enc, dropout_rate=0.25))
    path = tmp_path / "ckpt.bin"
    models.save_checkpoint(path, models.Checkpoint.of(mp, 7, 1))
    return path.read_bytes()


def metrics_bytes(tmp_path) -> bytes:
    records = [pipeline.MetricsRecord(
        stage=s, epoch=e, swap=1.5 - 0.1 * e, dal=0.25, ent=0.125, vat=1e-3,
        total=2.0, coreset_size=30 * s, source_probe_acc=0.75,
        target_acc=-1.0) for s in range(2) for e in range(2)]
    path = tmp_path / "metrics.jsonl"
    pipeline.write_metrics(path, records)
    return path.read_bytes()


def config_bytes(tmp_path) -> bytes:
    return pipeline.canonical_text(pipeline.RunConfig()).encode("utf-8")


def tensor_map_fields(blob: bytes, at: int) -> tuple[list, int]:
    """(offset, width) of every size field of the tensor map at byte `at`,
    and the offset just past the map."""
    fields = [(at, 8)]
    (count,) = struct.unpack_from("<Q", blob, at)
    at += 8
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, at)
        fields.append((at, 4))
        at += 4 + name_len
        (rank,) = struct.unpack_from("<I", blob, at)
        fields.append((at, 4))
        at += 4
        dims = struct.unpack_from(f"<{rank}Q", blob, at)
        fields += [(at + 8 * i, 8) for i in range(rank)]
        at += 8 * rank + 8 * int(np.prod(dims))
    return fields, at


def bundle_fields(blob: bytes) -> list:
    fields, end = tensor_map_fields(blob, len(MAGIC_DATASET))
    return fields + [(end, 8)]  # the spec sidecar's length


def checkpoint_fields(blob: bytes) -> list:
    fields, end = tensor_map_fields(blob, len(MAGIC_CHECKPOINT))
    return fields + [(end, 8), (end + 8, 8)]  # fingerprint and stage


# reader, sample file, and (for the binary formats) its size fields
BINARY = {
    "bundle": (data.load_bundle, bundle_bytes, bundle_fields),
    "checkpoint": (models.load_checkpoint, checkpoint_bytes,
                   checkpoint_fields),
}
TEXT = {
    "metrics": (pipeline.read_metrics, metrics_bytes),
    "config": (pipeline.load_config, config_bytes),
}
READERS = {**{k: v[:2] for k, v in BINARY.items()}, **TEXT}


def loads_or_a3_error(load, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        load(path)
    except A3Error:
        pass


def test_sample_files_load(tmp_path):
    for name, (load, make) in READERS.items():
        path = tmp_path / name
        path.write_bytes(make(tmp_path))
        load(path)


@pytest.mark.parametrize("name", list(BINARY))
@FUZZ
@given(cut=st.integers(0))
def test_truncated_binary_file_raises(tmp_path, name, cut):
    load, make, _ = BINARY[name]
    blob = make(tmp_path)
    path = tmp_path / "cut.bin"
    path.write_bytes(blob[:cut % len(blob)])
    with pytest.raises(A3Error):
        load(path)


@pytest.mark.parametrize("name", list(TEXT))
@FUZZ
@given(cut=st.integers(0))
def test_truncated_text_file_loads_or_raises(tmp_path, name, cut):
    load, make = TEXT[name]
    blob = make(tmp_path)
    loads_or_a3_error(load, tmp_path / "cut", blob[:cut % len(blob)])


@pytest.mark.parametrize("name", list(READERS))
@FUZZ
@given(bit=st.integers(0))
def test_flipped_bit_loads_or_raises(tmp_path, name, bit):
    load, make = READERS[name]
    blob = bytearray(make(tmp_path))
    bit %= 8 * len(blob)
    blob[bit // 8] ^= 1 << bit % 8
    loads_or_a3_error(load, tmp_path / "flipped", bytes(blob))


@pytest.mark.parametrize("name", list(BINARY))
@FUZZ
@given(pick=st.integers(0), value=st.integers(0, 2 ** 64 - 1))
def test_oversized_size_field_loads_or_raises(tmp_path, name, pick, value):
    load, make, size_fields = BINARY[name]
    blob = bytearray(make(tmp_path))
    sizes = size_fields(bytes(blob))
    at, width = sizes[pick % len(sizes)]
    big = (value | 1 << 63) >> (64 - 8 * width)  # top half of the range
    blob[at:at + width] = big.to_bytes(width, "little")
    loads_or_a3_error(load, tmp_path / "oversized", bytes(blob))


@pytest.mark.parametrize("name", list(TEXT))
@FUZZ
@given(pick=st.integers(0), digits=st.integers(300, 6000),
       form=st.sampled_from(["{}", "-{}", "1e{}", "0.{}"]))
def test_oversized_number_loads_or_raises(tmp_path, name, pick, digits, form):
    load, make = TEXT[name]
    literal = form.format("9" * digits)
    if name == "metrics":
        record = json.loads(make(tmp_path).splitlines()[0])
        key = sorted(record)[pick % len(record)]
        text = json.dumps(record)
        text = text.replace(json.dumps(key) + ": " + json.dumps(record[key]),
                            json.dumps(key) + ": " + literal, 1)
    else:
        keys = sorted(f.name for f in dataclasses.fields(pipeline.RunConfig))
        text = f"{keys[pick % len(keys)]} = {literal}\n"
    loads_or_a3_error(load, tmp_path / "oversized", text.encode("utf-8"))
