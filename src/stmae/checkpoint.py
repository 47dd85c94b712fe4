"""Single-file tensor container used for model checkpoints and clip caches.

Layout: one ASCII line holding the byte length of the JSON header, the
header itself (config dict plus a tensor manifest with names, shapes and
byte offsets), a newline, then raw little-endian float32 data in manifest
order. Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

FORMAT_TAG = "stmae-tensors-v1"


def save_tensors(path, tensors, config=None):
    """Write `tensors` (dict name -> array) and a JSON-able `config`."""
    manifest = []
    offset = 0
    blocks = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blocks.append(arr)
        offset += arr.nbytes
    header = json.dumps({
        "format": FORMAT_TAG,
        "config": config if config is not None else {},
        "tensors": manifest,
    }).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(f"{len(header)}\n".encode("ascii"))
            fh.write(header)
            fh.write(b"\n")
            for block in blocks:
                fh.write(block.astype("<f4").tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_tensors(path):
    """Read a container; returns (dict name -> float32 array, config dict).

    A malformed file raises ValueError naming the path and, where one
    entry is at fault, the tensor.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header_len = int(line.decode("ascii"))
        except ValueError:                   # UnicodeDecodeError included
            raise ValueError(f"{path}: header length line {line[:40]!r} is not a byte count") from None
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: header is not JSON ({exc})") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
            raise ValueError(f"{path}: not a {FORMAT_TAG} container")
        missing = sorted({"config", "tensors"} - header.keys())
        if missing:
            raise ValueError(f"{path}: header lacks {missing}")
        if not isinstance(header["config"], dict):
            raise ValueError(f"{path}: header config is not a JSON object")
        manifest = header["tensors"]
        if not isinstance(manifest, list) or not all(isinstance(e, dict) for e in manifest):
            raise ValueError(f"{path}: header tensors is not a list of JSON objects")
        fh.read(1)  # newline after header
        data = fh.read()
    tensors = {}
    for index, entry in enumerate(manifest):
        name = entry.get("name", f"#{index}")
        missing = sorted({"name", "shape", "offset"} - entry.keys())
        if missing:
            raise ValueError(f"{path}: tensor {name!r} lacks {missing}")
        if not isinstance(name, str):
            raise ValueError(f"{path}: tensor #{index} has name {name!r}, not a string")
        if name in tensors:
            raise ValueError(f"{path}: tensor #{index} repeats the name {name!r}")
        shape, start = entry["shape"], entry["offset"]
        if not (isinstance(shape, list) and all(map(_is_count, shape)) and _is_count(start)):
            raise ValueError(f"{path}: tensor {name!r} has shape {shape!r} and offset {start!r}; "
                             f"expected a list of non-negative ints and a non-negative int")
        shape = tuple(shape)
        count = math.prod(shape)
        if start + 4 * count > len(data):
            raise ValueError(f"{path}: tensor {name!r} of shape {shape} at offset {start} "
                             f"does not fit in {len(data)} data bytes")
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        tensors[name] = flat.reshape(shape).copy()
    return tensors, header["config"]


def _is_count(value):
    """A JSON non-negative integer; JSON's true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0
