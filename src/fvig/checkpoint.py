"""Flat binary checkpoint files.

Layout (all integers little-endian u32):

    magic "FVIG" | version | header_len | header (UTF-8) | count |
    count x (name_len | name (UTF-8) | rank | dims... | float64 LE payload)

The header carries free-form text; the model stores its configuration there
as newline-separated ``key=value`` pairs.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict
from typing import Mapping

import numpy as np

MAGIC = b"FVIG"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def save_checkpoint(path, tensors: Mapping[str, np.ndarray], header: str = "") -> None:
    items = [(name, np.asarray(arr, dtype=np.float64)) for name, arr in tensors.items()]
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    header_bytes = header.encode("utf-8")
    chunks.append(struct.pack("<I", len(header_bytes)))
    chunks.append(header_bytes)
    chunks.append(struct.pack("<I", len(items)))
    for name, arr in items:
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name_bytes)))
        chunks.append(name_bytes)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        chunks.append(arr.astype("<f8").tobytes(order="C"))
    # write beside the target, then rename over it: a failed save leaves any old file intact
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[str, "OrderedDict[str, np.ndarray]"]:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read '{path}': {err}") from None
    view = memoryview(buf)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"truncated checkpoint '{path}': expected {what}")
        piece = view[pos : pos + n]
        pos += n
        return piece

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    def utf8(what: str) -> str:
        raw = bytes(take(u32(f"{what} length"), what))
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{what} in '{path}' is not valid UTF-8") from None

    if bytes(take(4, "magic")) != MAGIC:
        raise CheckpointError(f"'{path}' is not a FVIG checkpoint (bad magic)")
    version = u32("version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version} in '{path}'")
    header = utf8("header")
    count = u32("tensor count")
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for _ in range(count):
        name = utf8("name")
        if name in tensors:
            raise CheckpointError(f"duplicate record '{name}' in '{path}'")
        rank = u32("rank")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims")) if rank else ()
        n = 1
        for d in dims:  # capped at the file size, so a corrupt rank is rejected in linear time
            n = min(n * d, len(view))
        payload = take(8 * n, f"payload of '{name}'")
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)
        except ValueError as err:  # e.g. a rank beyond numpy's dimension limit
            raise CheckpointError(f"record '{name}' in '{path}' has an unusable shape of rank {rank}: {err}") from None
    if pos != len(view):
        raise CheckpointError(f"trailing bytes after last record in '{path}'")
    return header, tensors
