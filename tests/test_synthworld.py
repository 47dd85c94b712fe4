"""Independent oracles for the synthetic world, its augmentations and its clip cache."""

import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from stmae import mae, synthworld

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
    assert isinstance(loaded, synthworld.VideoClip)
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


def test_load_clip_on_a_model_checkpoint_names_the_missing_keys(tmp_path):
    path = tmp_path / "model.ckpt"
    mae.save_model(path, mae.MaskedVideoModel(mae.preset("nano", input_size=(2, 16, 16)), seed=0))
    with pytest.raises(ValueError, match=r"model\.ckpt: not a clip file: lacks \['boxes', 'camera_poses', "
                                         r"'depth', 'frames', .*'track_xy', 'class_id'\]"):
        synthworld.load_clip(path)


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


# ---------------------------------------------------------------------------
# Windowed rendering against the full-frame reference
# ---------------------------------------------------------------------------

def _recording(render, surfaces):
    def call(spec, frame, width, height):
        out = render(spec, frame, width, height)
        surfaces.append(out[2])
        return out
    return call


@pytest.mark.parametrize("count, res, frames", [(8, 48, 6), (2, 160, 16)])
def test_render_matches_full_frame_reference(count, res, frames, monkeypatch):
    fast_surf, ref_surf = [], []
    monkeypatch.setattr(synthworld, "render_frame", _recording(synthworld.render_frame, fast_surf))
    fast = list(synthworld.generate(11, count, res, frames))
    monkeypatch.setattr(synthworld, "render_frame", _recording(oracles.render_frame_reference, ref_surf))
    ref = list(synthworld.generate(11, count, res, frames))
    assert len(fast_surf) == len(ref_surf) == count * frames
    for a, b in zip(fast_surf, ref_surf):
        np.testing.assert_array_equal(a, b)
    for (clip, labels), (ref_clip, ref_labels) in zip(fast, ref):
        assert clip.frames.dtype == np.float32
        np.testing.assert_allclose(clip.frames, ref_clip.frames, rtol=0, atol=4e-6)
        assert_labels_equal(labels, ref_labels)
    assert any(labels.boxes.any() for _, labels in fast)


@pytest.mark.parametrize("res", [48, 160])
def test_render_frame_float64_matches_ray_cast_reference(res):
    """The raw float64 output of the rasterizer against the full-frame ray
    caster, before render_clip rounds depth to float32: 8 scenes, one per
    motion class, every frame."""
    frames = 16
    for index in range(8):
        spec = synthworld._sample_scene((5, index), index, frames)
        for f in range(frames):
            rgb, depth, surf, boxes, pose = synthworld.render_frame(spec, f, res, res)
            ref_rgb, ref_depth, ref_surf, ref_boxes, ref_pose = \
                oracles.render_frame_reference(spec, f, res, res)
            np.testing.assert_array_equal(surf, ref_surf)
            np.testing.assert_array_equal(boxes, ref_boxes)
            np.testing.assert_array_equal(pose, ref_pose)
            assert depth.dtype == np.float64 and np.isfinite(depth).all()
            np.testing.assert_allclose(depth, ref_depth, rtol=1e-12, atol=0)
            np.testing.assert_allclose(rgb, ref_rgb, rtol=0, atol=4e-6)


def test_render_clip_builds_each_pose_once(monkeypatch):
    extrinsic, calls = synthworld.camera_extrinsic, []

    def counting(*args):
        calls.append(args)
        return extrinsic(*args)
    monkeypatch.setattr(synthworld, "camera_extrinsic", counting)
    spec = synthworld._sample_scene((11, 4), 4, FRAMES)
    _, labels = synthworld.render_clip(spec, RES, FRAMES)
    assert len(calls) == FRAMES
    for f in range(FRAMES):
        r, t = extrinsic(spec.camera_yaw[f], spec.camera_pitch[f], spec.camera_centers[f])
        np.testing.assert_array_equal(labels.camera_poses[f], np.column_stack([r, t]))


def _corner_depths(rect, r, center):
    corners = rect.origin + np.array([[0, 0], [1, 0], [1, 1], [0, 1]]) @ np.stack([rect.edge_u, rect.edge_v])
    return ((corners - center) @ r.T)[:, 2]


EDGE_EPS = 1e-9       # a hit test may differ only where u or v is this close to an edge


def test_screen_window_holds_every_hit():
    """Random cameras and rectangles, many crossing or wholly behind the
    camera plane: every ray the full-frame ray caster marks as a hit lies
    inside the window, and a rectangle without a window is hit by no ray.
    The rasterizer's affine forms, evaluated over the full frame, mark no
    hit outside the window either, and mark the ray caster's hits: a pixel
    may differ only within EDGE_EPS of an edge (none does on these cameras)."""
    rng = np.random.default_rng(23)
    width, height = 41, 29                 # unequal, so a swapped axis shows
    xs, ys = synthworld._pixel_centres(width, height)
    kinds = {"ahead": 0, "crossing": 0, "behind": 0}
    crossing_hits = near_edge = 0
    for _ in range(600):
        center = rng.uniform(-1.0, 1.0, 3)
        r, _ = synthworld.camera_extrinsic(rng.uniform(-np.pi, np.pi), rng.uniform(-1.2, 1.2), center)
        edge_u, edge_v = rng.normal(0.0, 1.0, (2, 3))
        edge_v -= (edge_v @ edge_u) / (edge_u @ edge_u) * edge_u
        rect = synthworld.Rect(center + rng.normal(0.0, 1.5, 3), edge_u, edge_v, texture=None)
        z = _corner_depths(rect, r, center)
        kind = "ahead" if (z > 0).all() else "behind" if (z <= 0).all() else "crossing"
        kinds[kind] += 1
        _, u, v, valid = oracles.intersect(rect, center, oracles.ray_dirs_world(r, width, height))
        cam = synthworld._camera_rect(rect, r, center)
        inside = np.zeros_like(valid)
        window = synthworld._screen_window(cam, width, height)
        if window is not None:
            inside[window] = True
        assert not (valid & ~inside).any(), (kind, window)
        _, _, _, hits = synthworld._plane_hits(cam, xs, ys)
        assert not (hits & ~inside).any(), (kind, window)
        differ = hits != valid
        edge_dist = np.minimum(np.minimum(np.abs(u), np.abs(1 - u)), np.minimum(np.abs(v), np.abs(1 - v)))
        assert (edge_dist[differ] < EDGE_EPS).all(), kind
        near_edge += differ.sum()
        crossing_hits += kind == "crossing" and valid.any()
    assert min(kinds.values()) >= 100, kinds
    assert crossing_hits >= 30
    assert near_edge == 0


def test_screen_windows_cover_few_pixels():
    """Cost guard without a clock: per frame, the pixels of all windows of
    a 160 px clip add up to at most 2.5 frames' worth, one clip per motion
    class (the full-frame cast took one frame per rectangle)."""
    res, frames = 160, 16
    for index in range(synthworld.NUM_CLASSES):
        spec = synthworld._sample_scene((11, index), index, frames)
        cast = 0
        for f in range(frames):
            r, _ = synthworld.camera_extrinsic(spec.camera_yaw[f], spec.camera_pitch[f],
                                               spec.camera_centers[f])
            for rect in synthworld._frame_rects(spec, f):
                cam = synthworld._camera_rect(rect, r, spec.camera_centers[f])
                window = synthworld._screen_window(cam, res, res)
                if window is not None:
                    cast += (window[0].stop - window[0].start) * (window[1].stop - window[1].start)
        assert cast / (frames * res * res) <= 2.5, index


# ---------------------------------------------------------------------------
# Relative camera pose
# ---------------------------------------------------------------------------

def _camera_coords(camera_poses, frame, world):
    return world @ camera_poses[frame, :, :3].T + camera_poses[frame, :, 3]


def test_pose_first_to_last_maps_static_points(clips):
    mirror = np.diag([-1.0, 1.0, 1.0])
    checked = 0
    for clip, labels in clips:
        world = labels.track_world[:, 0]
        static = np.all(labels.track_world == world[:, None], axis=(1, 2))
        assert static.sum() >= 6          # the anchors on the back wall and panel
        first = _camera_coords(labels.camera_poses, 0, world[static])
        last = _camera_coords(labels.camera_poses, -1, world[static])
        pose = labels.pose_first_to_last
        np.testing.assert_allclose(first @ pose.r.T + pose.t, last, rtol=0, atol=1e-9)

        _, flipped = full_view(clip, labels, flip=True)
        # mirrored world points seen by mirrored cameras give mirrored camera coords
        mirrored = world[static] @ mirror
        m_first = _camera_coords(flipped.camera_poses, 0, mirrored)
        m_last = _camera_coords(flipped.camera_poses, -1, mirrored)
        np.testing.assert_allclose(m_first, first @ mirror, rtol=0, atol=1e-12)
        pose = flipped.pose_first_to_last
        np.testing.assert_allclose(m_first @ pose.r.T + pose.t, m_last, rtol=0, atol=1e-9)
        checked += static.sum()
    assert checked >= 48


def test_flipped_cameras_project_the_flipped_tracks(clips):
    mirror = np.diag([-1.0, 1.0, 1.0])
    checked = 0
    for clip, labels in clips:
        _, flipped = full_view(clip, labels, flip=True)
        world = flipped.track_world @ mirror
        for f in range(FRAMES):
            pose = flipped.camera_poses[f]
            xy, _ = synthworld.project(world[:, f], pose[:, :3], pose[:, 3], RES, RES)
            vis = flipped.track_vis[:, f]
            np.testing.assert_allclose(xy[vis], flipped.track_xy[vis, f], rtol=0, atol=1e-9)
            checked += vis.sum()
    assert checked >= 400


def test_importing_synthworld_loads_no_model_code():
    code = ("import sys, stmae.synthworld; print(' '.join(m for m in ('stmae.readout', "
            "'stmae.mae', 'stmae.numcore', 'scipy.special') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(synthworld.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.split() == []
