"""The tensor archive: round trip, plain-numpy reads, and named errors for malformed files."""

import io
import json
import warnings
import zipfile

import numpy as np
import pytest

from stmae.checkpoint import CONFIG, load_tensors, save_tensors


def write_members(path, **members):
    """An archive with hand-made `.npy` members, as a damaged or foreign writer would leave it."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in members.items():
            buf = io.BytesIO()
            np.save(buf, value, allow_pickle=True)
            archive.writestr(f"{name}.npy", buf.getvalue())


def config_member(config):
    return np.array(json.dumps(config))


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"b": rng.standard_normal((3, 4)).astype(np.float32),
               "a": np.float32(2.5) * np.ones(()),
               "blocks.0.attn.qkv.weight": rng.standard_normal((2, 0, 5)).astype(np.float32)}
    save_tensors(tmp_path / "c.npz", tensors, config={"k": [1, 2], "name": "nano"})
    loaded, config = load_tensors(tmp_path / "c.npz")
    assert config == {"k": [1, 2], "name": "nano"} and list(loaded) == list(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == np.float32
        np.testing.assert_array_equal(loaded[name], arr)


def test_float64_input_is_stored_as_float32_and_an_empty_config_as_an_empty_object(tmp_path):
    values = np.array([0.1, 1e-50, 3.0])
    save_tensors(tmp_path / "c.ckpt", {"w": values}, config={})
    loaded, config = load_tensors(tmp_path / "c.ckpt")
    assert config == {} and loaded["w"].dtype == np.float32
    np.testing.assert_array_equal(loaded["w"], values.astype(np.float32))


def test_plain_np_load_reads_a_saved_file(tmp_path):
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_tensors(tmp_path / "c.stm", {"w": w}, config={"class_id": 3})
    with np.load(tmp_path / "c.stm", allow_pickle=False) as archive:
        assert archive.files == ["w", CONFIG]
        np.testing.assert_array_equal(archive["w"], w)
        assert json.loads(archive[CONFIG].item()) == {"class_id": 3}


def test_reserved_names_are_refused_and_leave_no_file(tmp_path):
    for name in (CONFIG, "file", "allow_pickle"):
        with pytest.raises(ValueError, match=rf"c\.npz: tensor names \['{name}'\] are reserved"):
            save_tensors(tmp_path / "c.npz", {"w": np.zeros(2), name: np.zeros(2)}, config={})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("config", [None, [1, 2], "nano"])
def test_a_config_that_is_not_a_dict_is_refused_and_leaves_no_file(tmp_path, config):
    with pytest.raises(ValueError, match=r"c\.npz: config must be a dict"):
        save_tensors(tmp_path / "c.npz", {"w": np.zeros(2)}, config=config)
    assert list(tmp_path.iterdir()) == []


def test_flipped_data_byte_names_path_and_tensor(tmp_path):
    path = tmp_path / "c.npz"
    w = np.arange(64, dtype=np.float32)
    save_tensors(path, {"v": np.ones(3), "w": w}, config={})
    raw = bytearray(path.read_bytes())
    raw[raw.find(w.tobytes()) + 100] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=r"c\.npz: tensor 'w' is damaged .*CRC"):
        load_tensors(path)


def test_every_truncation_names_the_path(tmp_path):
    path, cut = tmp_path / "c.npz", tmp_path / "cut.npz"
    save_tensors(path, {"first": np.zeros(4), "second": np.ones((2, 3))}, config={"k": 1})
    raw = path.read_bytes()
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ValueError, match=r"cut\.npz: "):
            load_tensors(cut)


def test_truncated_tensor_names_path_and_tensor(tmp_path):
    path = tmp_path / "c.npz"
    buf = io.BytesIO()
    np.save(buf, np.ones((2, 3), dtype=np.float32))
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("first.npy", buf.getvalue())
        archive.writestr("second.npy", buf.getvalue()[:-5])
    with pytest.raises(ValueError, match=r"c\.npz: tensor 'second' is damaged"):
        load_tensors(path)


@pytest.mark.parametrize("content", [b"", b"twelve\n{}\n", b"PK\x03\x04" + bytes(40)],
                         ids=["empty", "text", "zip-magic-only"])
def test_file_that_is_not_an_archive_names_the_path(tmp_path, content):
    path = tmp_path / "c.npz"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=r"c\.npz: not an \.npz archive"):
        load_tensors(path)


def test_single_npy_array_is_not_an_archive(tmp_path):
    path = tmp_path / "c.npy"
    np.save(path, np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError, match=r"c\.npy: holds a single array, not an \.npz archive"):
        load_tensors(path)


@pytest.mark.parametrize("header", [
    {"descr": "<f4", "fortran_order": False},
    {"descr": "<f4", "fortran_order": False, "shape": (-1,)},
    {"descr": "<f4", "fortran_order": False, "shape": (2, 1.5)},
    {"descr": "<f4", "fortran_order": False, "shape": (True, 2)},
    {"descr": "<f4", "fortran_order": False, "shape": "ab"}],
    ids=["no-shape", "negative-extent", "float-extent", "bool-extent", "string-shape"])
def test_member_with_a_bad_header_names_path_and_tensor(tmp_path, header):
    """Each member's `.npy` header (dtype, order, shape) is parsed by numpy."""
    text = repr(header).encode("latin1") + b"\n"
    member = b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text + bytes(8)
    path = tmp_path / "c.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("w.npy", member)
    with pytest.raises(ValueError, match=r"c\.npz: tensor 'w' is damaged"):
        load_tensors(path)


@pytest.mark.parametrize("second", ["w.npy", "w"])
def test_repeated_member_name_names_path_and_tensor(tmp_path, second):
    path = tmp_path / "c.npz"
    write_members(path, w=np.zeros(2, dtype=np.float32), **{CONFIG: config_member({})})
    with zipfile.ZipFile(path, "a") as archive, warnings.catch_warnings():
        warnings.simplefilter("ignore")          # zipfile warns of a duplicate name
        archive.writestr(second, b"")
    with pytest.raises(ValueError, match=r"c\.npz: tensor 'w' is repeated"):
        load_tensors(path)


def test_object_member_names_path_and_tensor(tmp_path):
    path = tmp_path / "c.npz"
    write_members(path, w=np.array([{"x": 1}], dtype=object), **{CONFIG: config_member({})})
    with pytest.raises(ValueError, match=r"c\.npz: tensor 'w' is damaged .*allow_pickle"):
        load_tensors(path)


def test_pickled_member_names_path_and_tensor(tmp_path):
    path = tmp_path / "c.npz"
    write_members(path, **{CONFIG: config_member({})})
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("w", b"\x80\x04\x95\x05\x00\x00\x00\x00\x00\x00\x00K\x01.")
    with pytest.raises(ValueError, match=r"c\.npz: tensor 'w' is bytes, not float32"):
        load_tensors(path)


@pytest.mark.parametrize("dtype", [np.float64, np.int32, ">f4"])
def test_non_float32_member_names_path_and_tensor(tmp_path, dtype):
    path = tmp_path / "c.npz"
    write_members(path, v=np.zeros(2, dtype=np.float32), w=np.zeros(2, dtype=dtype),
                  **{CONFIG: config_member({})})
    with pytest.raises(ValueError, match=rf"c\.npz: tensor 'w' is {np.dtype(dtype)}, not float32"):
        load_tensors(path)


def test_config_that_is_not_an_object_names_the_path(tmp_path):
    path = tmp_path / "c.npz"
    for config in (config_member([]), config_member(None), np.array("{not json"),
                   np.array(b"{}"), np.array(["{}"]), np.float32(1.0)):
        write_members(path, w=np.zeros(2, dtype=np.float32), **{CONFIG: config})
        with pytest.raises(ValueError, match=rf"c\.npz: member '{CONFIG}' is missing or is not "
                                             r"a JSON object string"):
            load_tensors(path)


def test_missing_config_names_the_path(tmp_path):
    path = tmp_path / "c.npz"
    np.savez(path, w=np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError, match=rf"c\.npz: member '{CONFIG}' is missing"):
        load_tensors(path)
