"""Tensor archive used for model checkpoints and clip caches.

Layout: a NumPy `.npz` archive, as written by `np.savez`. Each tensor is
one float32 `.npy` member, in the order given, and the JSON config is a
0-d string member named CONFIG. `np.load(path, allow_pickle=False)`
reads it; zip's CRC-32 catches damaged data bytes. Writes are atomic
(temp file + rename).
"""

import json
import os
import tempfile
import zipfile

import numpy as np

CONFIG = "__config__"
_RESERVED = frozenset({CONFIG, "file", "allow_pickle"})   # np.savez's own names
# What numpy and zipfile raise on a malformed open file: OSError, RuntimeError and
# TypeError come from a damaged zip offset, zip flags and a member's header shape.
_DAMAGED = (ValueError, TypeError, EOFError, OSError, RuntimeError, zipfile.BadZipFile)


def save_tensors(path, tensors, config):
    """Write `tensors` (dict name -> array) and a JSON-able `config` dict."""
    reserved = sorted(_RESERVED & tensors.keys())
    if reserved:
        raise ValueError(f"{path}: tensor names {reserved} are reserved")
    if not isinstance(config, dict):            # load_tensors reads back only a JSON object
        raise ValueError(f"{path}: config must be a dict, got {type(config).__name__}")
    members = {name: np.ascontiguousarray(arr, dtype=np.float32) for name, arr in tensors.items()}
    members[CONFIG] = np.array(json.dumps(config))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **members)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_tensors(path):
    """Read an archive; returns (dict name -> float32 array, config dict).

    A malformed file raises ValueError naming the path and, where one
    member is at fault, the tensor.
    """
    tensors = {}
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except _DAMAGED as exc:
            raise ValueError(f"{path}: not an .npz archive ({exc})") from None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: holds a single array, not an .npz archive")
        with archive:
            for name in archive.files:
                if name in tensors:
                    raise ValueError(f"{path}: tensor {name!r} is repeated")
                try:
                    tensors[name] = archive[name]
                except _DAMAGED as exc:
                    raise ValueError(f"{path}: tensor {name!r} is damaged ({exc})") from None
    text, config = tensors.pop(CONFIG, None), None
    if isinstance(text, np.ndarray) and text.shape == () and text.dtype.kind == "U":
        try:
            config = json.loads(text.item())
        except json.JSONDecodeError:
            pass
    if not isinstance(config, dict):
        raise ValueError(f"{path}: member {CONFIG!r} is missing or is not a JSON object string")
    for name, arr in tensors.items():
        if getattr(arr, "dtype", None) != np.float32:
            raise ValueError(f"{path}: tensor {name!r} is {getattr(arr, 'dtype', 'bytes')}, not float32")
    return tensors, config
