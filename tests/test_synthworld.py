"""Independent oracles for the synthetic world, its augmentations and its clip cache."""

import numpy as np
import pytest

import oracles
from stmae import synthworld

RES, FRAMES = 48, 6


@pytest.fixture(scope="module")
def clips():
    return list(synthworld.generate(11, 8, RES, FRAMES))


def assert_labels_equal(a, b):
    for field in ("depth", "camera_poses", "track_xy", "track_vis", "track_world", "boxes"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)
    np.testing.assert_array_equal(a.pose_first_to_last.r, b.pose_first_to_last.r)
    np.testing.assert_array_equal(a.pose_first_to_last.t, b.pose_first_to_last.t)
    assert a.class_id == b.class_id


def test_clip_does_not_depend_on_stream_length(clips):
    for count in (3, 5):
        for i, (clip, labels) in enumerate(synthworld.generate(11, count, RES, FRAMES)):
            np.testing.assert_array_equal(clip.frames, clips[i][0].frames)
            assert_labels_equal(labels, clips[i][1])


def test_save_load_clip_round_trip(clips, tmp_path):
    clip, labels = clips[1]
    path = tmp_path / "clip.stm"
    synthworld.save_clip(path, clip, labels)
    loaded, loaded_labels = synthworld.load_clip(path)
    assert loaded.frame_stride == clip.frame_stride
    np.testing.assert_array_equal(loaded.frames, clip.frames)
    np.testing.assert_array_equal(loaded_labels.depth, labels.depth)
    np.testing.assert_array_equal(loaded_labels.track_vis, labels.track_vis)
    assert loaded_labels.class_id == labels.class_id
    # the container stores float32; float64 labels come back rounded once
    for field in ("camera_poses", "track_xy", "track_world", "boxes"):
        np.testing.assert_array_equal(getattr(loaded_labels, field),
                                      getattr(labels, field).astype(np.float32), err_msg=field)
    for part in ("r", "t"):
        np.testing.assert_array_equal(getattr(loaded_labels.pose_first_to_last, part),
                                      getattr(labels.pose_first_to_last, part).astype(np.float32))


def full_view(clip, labels, flip):
    return synthworld.augment(clip, labels, None, crop=(0, 0, RES, RES), flip=flip)


def assert_same_clip(a, b):
    (clip_a, lab_a), (clip_b, lab_b) = a, b
    np.testing.assert_array_equal(clip_a.frames, clip_b.frames)
    np.testing.assert_array_equal(lab_a.depth, lab_b.depth)
    np.testing.assert_array_equal(lab_a.track_vis, lab_b.track_vis)
    for field in ("track_xy", "boxes", "camera_poses"):
        np.testing.assert_allclose(getattr(lab_a, field), getattr(lab_b, field),
                                   rtol=0, atol=1e-12, err_msg=field)
    np.testing.assert_allclose(lab_a.pose_first_to_last.r, lab_b.pose_first_to_last.r, atol=1e-12)
    np.testing.assert_allclose(lab_a.pose_first_to_last.t, lab_b.pose_first_to_last.t, atol=1e-12)


def test_full_crop_without_flip_is_identity(clips):
    for clip, labels in clips[:4]:
        assert_same_clip(full_view(clip, labels, flip=False), (clip, labels))


def test_flipping_twice_is_identity(clips):
    for clip, labels in clips[:4]:
        once = full_view(clip, labels, flip=True)
        assert not np.array_equal(once[0].frames, clip.frames)
        assert_same_clip(full_view(*once, flip=True), (clip, labels))


def test_depth_at_visible_track_pixels_matches_camera_z(clips):
    checked = 0
    for _, labels in clips:
        r, t = labels.camera_poses[..., :3], labels.camera_poses[..., 3]
        cam = np.einsum("fij,mfj->mfi", r, labels.track_world) + t
        m, f = np.nonzero(labels.track_vis)
        x = np.clip(np.floor(labels.track_xy[m, f, 0]).astype(int), 0, RES - 1)
        y = np.clip(np.floor(labels.track_xy[m, f, 1]).astype(int), 0, RES - 1)
        np.testing.assert_array_less(np.abs(labels.depth[f, y, x] - cam[m, f, 2]), 0.1)
        checked += len(m)
    assert checked > 200


@pytest.mark.parametrize("out_hw", [(55, 55), (32, 40), (48, 20), (96, 48)])
def test_resize_bilinear_float32_matches_float64_reference(clips, out_hw):
    frames = clips[2][0].frames
    out = synthworld.resize_bilinear(frames, *out_hw)
    assert out.dtype == np.float32 and out.shape == (FRAMES, *out_hw, 3)
    np.testing.assert_allclose(out, oracles.resize_bilinear_4tap(frames, *out_hw), rtol=0, atol=1e-6)


def test_resize_bilinear_same_size_is_identity(clips):
    frames = clips[3][0].frames
    out = synthworld.resize_bilinear(frames, RES, RES)
    assert out is not frames
    np.testing.assert_array_equal(out, frames)
