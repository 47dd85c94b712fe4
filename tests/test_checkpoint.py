"""The tensor container: round trip, and named errors for malformed files."""

import json

import numpy as np
import pytest

from stmae.checkpoint import FORMAT_TAG, load_tensors, save_tensors


def write_raw(path, header, data=b""):
    """A container with a hand-made header, as a damaged or foreign writer would leave it."""
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(f"{len(text)}\n".encode("ascii") + text + b"\n" + data)


def header_of(*entries):
    return {"format": FORMAT_TAG, "config": {}, "tensors": list(entries)}


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 4)).astype(np.float32), "b": np.float32(2.5) * np.ones(())}
    save_tensors(tmp_path / "c.stm", tensors, config={"k": [1, 2]})
    loaded, config = load_tensors(tmp_path / "c.stm")
    assert config == {"k": [1, 2]} and list(loaded) == ["a", "b"]
    for name, arr in tensors.items():
        np.testing.assert_array_equal(loaded[name], arr)


def test_bad_length_line_names_the_path(tmp_path):
    path = tmp_path / "c.stm"
    path.write_bytes(b"twelve\n{}\n")
    with pytest.raises(ValueError, match=r"c\.stm.*length line"):
        load_tensors(path)


def test_truncated_tensor_names_path_and_tensor(tmp_path):
    path = tmp_path / "c.stm"
    save_tensors(path, {"first": np.zeros(4), "second": np.ones((2, 3))})
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match=r"c\.stm.*'second'"):
        load_tensors(path)


@pytest.mark.parametrize("shape, offset", [([2], -4), ([-1], 0),
                                           ("ab", 0), ([2], "0"), ([1.5], 0), ([True, 2], 0)])
def test_negative_offset_or_extent_names_path_and_tensor(tmp_path, shape, offset):
    path = tmp_path / "c.stm"
    write_raw(path, header_of({"name": "w", "shape": shape, "offset": offset}), bytes(8))
    with pytest.raises(ValueError, match=r"c\.stm.*'w'"):
        load_tensors(path)


def test_config_that_is_not_an_object_names_the_path(tmp_path):
    path = tmp_path / "c.stm"
    write_raw(path, {"format": FORMAT_TAG, "config": [], "tensors": []})
    with pytest.raises(ValueError, match=r"c\.stm: header config is not a JSON object"):
        load_tensors(path)


@pytest.mark.parametrize("header, named", [
    ({"format": FORMAT_TAG, "config": {}}, "tensors"),
    (header_of({"name": "w", "shape": [2]}), "'w'.*offset"),
    ({"format": FORMAT_TAG, "config": {}, "tensors": [1]}, "tensors is not a list of JSON objects"),
    ({"format": FORMAT_TAG, "config": {}, "tensors": {"a": 1}}, "tensors is not a list of JSON objects"),
    (header_of({"name": 3, "shape": [2], "offset": 0}), "tensor #0 has name 3"),
    (header_of(*[{"name": "w", "shape": [1], "offset": 0}] * 2), "tensor #1 repeats the name 'w'"),
])
def test_missing_header_keys_are_named(tmp_path, header, named):
    path = tmp_path / "c.stm"
    write_raw(path, header, bytes(8))
    with pytest.raises(ValueError, match=rf"c\.stm.*{named}"):
        load_tensors(path)
