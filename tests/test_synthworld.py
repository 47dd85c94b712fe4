"""Independent oracles for the synthetic world, its augmentations and its clip cache."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
from stmae import mae, synthworld

SEED, RES, FRAMES = 11, 48, 6
MIRROR = np.diag([-1.0, 1.0, 1.0])      # world x -> -x, what a horizontal flip of a view shows


@pytest.fixture(scope="module")
def clips():
    return list(synthworld.generate(SEED, 8, RES, FRAMES))


def scene_geometry(i, mirrored=False):
    """Clip i of `clips` from its scene spec: each frame's world-to-camera
    (r, t), and the track points in world coordinates, (M, T, 3). `mirrored`
    reflects world x for cameras and points alike."""
    spec = synthworld._sample_scene((SEED, i), i % synthworld.NUM_CLASSES, FRAMES)
    cameras = [synthworld.camera_extrinsic(spec.camera_yaw[f], spec.camera_pitch[f],
                                           spec.camera_centers[f]) for f in range(FRAMES)]
    points = np.stack([synthworld._track_positions(spec, f) for f in range(FRAMES)], axis=1)
    if mirrored:
        cameras = [(MIRROR @ r @ MIRROR, MIRROR @ t) for r, t in cameras]
        points = points @ MIRROR
    return cameras, points


def camera_coords(camera, world):
    r, t = camera
    return world @ r.T + t


def label_arrays(labels):
    """(name, array) for every field of `labels`; the pose gives its r and its t."""
    for field in dataclasses.fields(synthworld.SceneLabels):
        value = getattr(labels, field.name)
        if isinstance(value, synthworld.SE3Pose):
            yield f"{field.name}.r", value.r
            yield f"{field.name}.t", value.t
        else:
            yield field.name, np.asarray(value)


def assert_labels_equal(a, b):
    for (name, x), (_, y) in zip(label_arrays(a), label_arrays(b), strict=True):
        np.testing.assert_array_equal(x, y, err_msg=name)


def test_clip_does_not_depend_on_stream_length(clips):
    for count in (3, 5):
        for i, (clip, labels) in enumerate(synthworld.generate(11, count, RES, FRAMES)):
            np.testing.assert_array_equal(clip.frames, clips[i][0].frames)
            assert_labels_equal(labels, clips[i][1])


@pytest.mark.parametrize("resolution,frames,message", [
    (0, 4, "resolution 0"), (-4, 4, "resolution -4"), (16, 0, "frames 0")])
def test_generate_rejects_extents_below_one(resolution, frames, message):
    with pytest.raises(ValueError, match=f"^{message} must be >= 1$"):
        synthworld.generate(0, 1, resolution, frames)


def test_save_load_clip_round_trip(clips, tmp_path):
    clip, labels = clips[1]
    path = tmp_path / "clip.stm"
    synthworld.save_clip(path, clip, labels)
    loaded, loaded_labels = synthworld.load_clip(path)
    assert isinstance(loaded, synthworld.VideoClip)
    np.testing.assert_array_equal(loaded.frames, clip.frames)
    # the container stores float32; float64 labels come back rounded once
    for (name, got), (_, saved) in zip(label_arrays(loaded_labels), label_arrays(labels),
                                       strict=True):
        expected = saved.astype(np.float32) if saved.dtype == np.float64 else saved
        np.testing.assert_array_equal(got, expected, err_msg=name)


def test_load_clip_on_a_model_checkpoint_names_the_missing_keys(tmp_path):
    path = tmp_path / "model.ckpt"
    mae.save_model(path, mae.MaskedVideoModel(mae.preset("nano", input_size=(2, 16, 16)), seed=0))
    with pytest.raises(ValueError, match=r"model\.ckpt: not a clip file: lacks \['boxes', 'depth', "
                                         r"'frames', .*'track_xy', 'class_id'\]"):
        synthworld.load_clip(path)


@pytest.mark.parametrize("out_hw, crop, message", [
    ((0, 16), None, r"out_hw \(0, 16\) must be >= 1 in each extent"),
    ((16, -2), (0, 0, RES, RES), r"out_hw \(16, -2\) must be >= 1 in each extent"),
    (None, (0, 0, 0, 16), r"crop size \(0, 16\) must be >= 1 in each extent"),
    ((16, 16), (4, 4, 8, 0), r"crop size \(8, 0\) must be >= 1 in each extent")])
def test_augment_rejects_extents_below_one(clips, out_hw, crop, message):
    clip, labels = clips[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        synthworld.augment(clip, labels, np.random.default_rng(0), out_hw=out_hw, crop=crop)


@pytest.mark.parametrize("out_size", [0, -3])
def test_pretrain_view_rejects_sizes_below_one(clips, out_size):
    with pytest.raises(ValueError, match=f"^out_size {out_size} must be >= 1$"):
        synthworld.pretrain_view(clips[0][0], np.random.default_rng(0), out_size)


@pytest.mark.parametrize("out_hw, message", [
    ((16.5, 16), r"out_hw \(16.5, 16\) must be integers"),
    ((True, 16), r"out_hw \(True, 16\) must be integers")])
def test_augment_rejects_sizes_that_are_not_integers(clips, out_hw, message):
    clip, labels = clips[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        synthworld.augment(clip, labels, np.random.default_rng(0), out_hw=out_hw)


@pytest.mark.parametrize("crop", [(0.5, 0, 8, 8), (True, 0, 8, 8), (0, np.float64(2.0), 8, 8)])
def test_augment_rejects_crop_origins_that_are_not_integers(clips, crop):
    clip, labels = clips[0]
    with pytest.raises(ValueError, match=re.escape(f"crop {crop} must start at integer pixels")):
        synthworld.augment(clip, labels, np.random.default_rng(0), crop=crop)


@pytest.mark.parametrize("resolution, frames, message", [
    (16.5, 4, "resolution 16.5"), (True, 4, "resolution True"), (16, 4.0, "frames 4.0")])
def test_generate_rejects_sizes_that_are_not_integers(resolution, frames, message):
    with pytest.raises(ValueError, match=f"^{message} must be an integer$"):
        synthworld.generate(0, 1, resolution, frames)


@pytest.mark.parametrize("seed, count, message", [
    (-1, 1, "seed -1"), (1.5, 1, "seed 1.5"), (True, 1, "seed True"),
    (0, -3, "count -3"), (0, 2.5, "count 2.5"), (0, np.float64(2.0), "count np.float64(2.0)")])
def test_generate_rejects_a_seed_or_count_that_is_not_an_integer_of_at_least_zero(seed, count,
                                                                                    message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)} must be an integer >= 0$"):
        synthworld.generate(seed, count, 16, 4)


@pytest.mark.parametrize("out_size", [8.5, True])
def test_pretrain_view_rejects_sizes_that_are_not_integers(clips, out_size):
    with pytest.raises(ValueError, match=f"^out_size {out_size!r} must be an integer$"):
        synthworld.pretrain_view(clips[0][0], np.random.default_rng(0), out_size)


def test_sizes_may_be_numpy_integers(clips):
    clip, labels = clips[0]
    view = synthworld.pretrain_view(clip, np.random.default_rng(0), np.int64(8))
    assert view.shape[1:3] == (8, 8)
    out, _ = synthworld.augment(clip, labels, np.random.default_rng(0), out_hw=(np.int64(8), 8))
    assert out.frames.shape[1:3] == (8, 8)
    assert list(synthworld.generate(np.int64(0), np.uint8(0), np.int64(16), 4)) == []


def resize_then_crop_view(clip, rng, out_size):
    """`pretrain_view` as a whole-clip `resize_bilinear` followed by the crop."""
    frames = clip.frames
    small = min(frames.shape[1:3])
    target_small = int(round(synthworld.VIEW_RESIZE * out_size))
    if small != target_small:
        scale = target_small / small
        frames = synthworld.resize_bilinear(frames, int(round(frames.shape[1] * scale)),
                                            int(round(frames.shape[2] * scale)))
    y0 = int(rng.integers(0, frames.shape[1] - out_size + 1))
    x0 = int(rng.integers(0, frames.shape[2] - out_size + 1))
    view = frames[:, y0:y0 + out_size, x0:x0 + out_size]
    if rng.random() < synthworld.FLIP_P:
        view = view[:, :, ::-1]
    return np.ascontiguousarray(view)


# a short side of 48 resized down (to 23 or 9), up (to 51) or kept (42 * 1.15 rounds
# to 48), and a 48 x 30 clip whose short side is its width
@pytest.mark.parametrize("out_size, hw", [(20, (RES, RES)), (8, (RES, RES)), (44, (RES, RES)),
                                          (42, (RES, RES)), (16, (RES, 30))])
def test_pretrain_view_is_resize_then_crop_bitwise(clips, out_size, hw):
    for seed, (clip, _) in enumerate(clips):
        clip = synthworld.VideoClip(frames=clip.frames[:, :hw[0], :hw[1]])
        view = synthworld.pretrain_view(clip, np.random.default_rng(seed), out_size)
        expected = resize_then_crop_view(clip, np.random.default_rng(seed), out_size)
        assert view.dtype == expected.dtype
        np.testing.assert_array_equal(view, expected)


def test_texture_sample_matches_clipped_cells_bitwise():
    # coordinates on every cell boundary, both ends of [0, 1] included
    for seed in range(6):
        rng = np.random.default_rng(seed)
        texture = synthworld._texture(rng, bright=seed % 2 == 1)
        g = texture.noise.shape[0]
        edges = np.arange(g + 1) / g
        u = np.concatenate([rng.random(500), edges, np.nextafter(edges[1:], 0), [0.0, 1.0]])
        v = np.concatenate([rng.random(500), edges[::-1], np.nextafter(edges[1:], 0), [1.0, 0.0]])
        expected = oracles.texture_sample_clipped(texture, u, v)
        np.testing.assert_array_equal(texture.sample(u, v), expected)


def full_view(clip, labels, flip):
    return synthworld.augment(clip, labels, None, crop=(0, 0, RES, RES), flip=flip)


def assert_same_clip(a, b):
    (clip_a, lab_a), (clip_b, lab_b) = a, b
    np.testing.assert_array_equal(clip_a.frames, clip_b.frames)
    np.testing.assert_array_equal(lab_a.depth, lab_b.depth)
    np.testing.assert_array_equal(lab_a.track_vis, lab_b.track_vis)
    for field in ("track_xy", "boxes"):
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
    for i, (_, labels) in enumerate(clips):
        cameras, points = scene_geometry(i)
        z = np.stack([camera_coords(cameras[f], points[:, f])[:, 2] for f in range(FRAMES)], axis=1)
        m, f = np.nonzero(labels.track_vis)
        x = np.clip(np.floor(labels.track_xy[m, f, 0]).astype(int), 0, RES - 1)
        y = np.clip(np.floor(labels.track_xy[m, f, 1]).astype(int), 0, RES - 1)
        np.testing.assert_array_less(np.abs(labels.depth[f, y, x] - z[m, f]), 0.1)
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
    spec = synthworld._sample_scene((SEED, 4), 4, FRAMES)
    _, labels = synthworld.render_clip(spec, RES, FRAMES)
    assert len(calls) == FRAMES
    (r0, t0), (r1, t1) = (extrinsic(spec.camera_yaw[f], spec.camera_pitch[f], spec.camera_centers[f])
                          for f in (0, FRAMES - 1))
    np.testing.assert_array_equal(labels.pose_first_to_last.r, r1 @ r0.T)
    np.testing.assert_array_equal(labels.pose_first_to_last.t, t1 - r1 @ r0.T @ t0)


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

def test_pose_first_to_last_maps_static_points(clips):
    checked = 0
    for i, (clip, labels) in enumerate(clips):
        cameras, points = scene_geometry(i)
        static = np.all(points == points[:, :1], axis=(1, 2))
        assert static.sum() >= 6          # the anchors on the back wall and panel
        first = camera_coords(cameras[0], points[static, 0])
        last = camera_coords(cameras[-1], points[static, 0])
        pose = labels.pose_first_to_last
        np.testing.assert_allclose(first @ pose.r.T + pose.t, last, rtol=0, atol=1e-9)

        _, flipped = full_view(clip, labels, flip=True)
        # mirrored world points seen by mirrored cameras give mirrored camera coords
        cameras, points = scene_geometry(i, mirrored=True)
        m_first = camera_coords(cameras[0], points[static, 0])
        m_last = camera_coords(cameras[-1], points[static, 0])
        np.testing.assert_allclose(m_first, first @ MIRROR, rtol=0, atol=1e-12)
        pose = flipped.pose_first_to_last
        np.testing.assert_allclose(m_first @ pose.r.T + pose.t, m_last, rtol=0, atol=1e-9)
        checked += static.sum()
    assert checked >= 48


def test_flipped_cameras_project_the_flipped_tracks(clips):
    checked = 0
    for i, (clip, labels) in enumerate(clips):
        _, flipped = full_view(clip, labels, flip=True)
        cameras, points = scene_geometry(i, mirrored=True)
        for f in range(FRAMES):
            xy, _ = synthworld.project(points[:, f], *cameras[f], RES, RES)
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
