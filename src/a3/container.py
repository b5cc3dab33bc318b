"""Little-endian binary container for named float64 tensors.

Layout after the caller-chosen magic string: a u64 entry count, then per
entry a u32 name length, the UTF-8 name, a u32 rank, u64 dims, and the
row-major float64 payload. Checkpoints, dataset bundles, and embedding
dumps all reuse this writer/reader with different magics.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError

MAGIC_CHECKPOINT = b"A3CKPT1"
MAGIC_DATASET = b"A3DATA1"
MAGIC_EMBEDDINGS = b"A3EMBD1"


def _read_exact(f: BinaryIO, n: int) -> bytes:
    # Sizes come from the file, so check them against what is left before
    # reading: a hostile header must not make f.read allocate gigabytes.
    at = f.tell()
    left = f.seek(0, 2) - at
    f.seek(at)
    if n > left:
        raise FormatError(
            f"truncated file: wanted {n} bytes at byte offset {at}, "
            f"{left} left")
    return f.read(n)


def check_magic(f: BinaryIO, magic: bytes) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise FormatError(
            f"bad magic at byte offset 0: expected {magic!r}, got {got!r}")


def write_tensor_map(f: BinaryIO, tensors: dict[str, np.ndarray]) -> None:
    f.write(struct.pack("<Q", len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype="<f8")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        name_bytes = name.encode("utf-8")
        f.write(struct.pack("<I", len(name_bytes)))
        f.write(name_bytes)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.tobytes())


def read_tensor_map(f: BinaryIO) -> dict[str, np.ndarray]:
    (count,) = struct.unpack("<Q", _read_exact(f, 8))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _read_exact(f, 4))
        name_at = f.tell()
        raw_name = _read_exact(f, name_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"tensor name at byte offset {name_at} is not "
                f"UTF-8: {exc}") from exc
        if name in out:
            raise FormatError(
                f"duplicate tensor {name!r} at byte offset {name_at}")
        (rank,) = struct.unpack("<I", _read_exact(f, 4))
        dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank)) if rank else ()
        n = 1
        for d in dims:
            n *= d
        payload = _read_exact(f, 8 * n)
        try:
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:
            raise FormatError(
                f"tensor {name!r} has unusable dims {dims}: {exc}") from exc
    return out
