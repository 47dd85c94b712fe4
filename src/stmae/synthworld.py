"""Deterministic synthetic 4D scenes with exact ground truth.

Each clip is a textured 5 m room (6 walls plus a wall panel) containing
one to three billboard sprites, viewed by a pinhole camera whose motion
follows one of eight motion-pattern classes. Frames are rendered by
z-buffered rasterization of the rectangles, with no ray casting: moved
into camera coordinates once per frame, a rectangle gives the depth and
texture coordinates of the point each pixel sees as ratios of forms that
are affine in the pixel coordinates, so the depth map, the relative camera
pose, the point tracks and the sprite boxes are exact by construction. A
rectangle's forms are evaluated only inside its screen window, the padded
bounding box of its projection clipped to the space in front of the
camera, and each pixel is then shaded once, in float32, by the nearest
rectangle. Clip `i` of a stream draws all randomness from
`default_rng([seed, i, attempt])`, where `attempt` is the first of up to
20 scene draws whose camera stays clear of walls and sprites (almost
always 0).

Conventions: world x right, y down, z forward; the camera looks toward
+z. Extrinsics map world to camera: Xc = R (Xw - c). Intrinsics are fixed
at focal = 0.5 * image width with the principal point at the center, and
continuous pixel coordinates run 0..W with pixel (i, j) centered at
(j + 0.5, i + 0.5).
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_tensors, save_tensors

log = logging.getLogger(__name__)

ROOM_HALF = 2.5
NUM_CLASSES = 8
CLASS_NAMES = (
    "camera_pan", "camera_tilt", "camera_truck", "camera_dolly",
    "camera_orbit", "object_horizontal", "object_vertical", "object_depth",
)
OCCLUSION_TOLERANCE = 0.1   # meters of depth slack in the z-buffer test
_RAY_EPS = 1e-9
_MIN_T = 1e-6               # nearest ray hit; t is the hit's camera z
CROP_AREA_RANGE = (0.3, 1.0)    # augment: crop area, as a share of the frame
CROP_ASPECT_RANGE = (0.5, 2.0)  # augment: crop width / height, drawn log-uniform
FLIP_P = 0.5                    # augment and pretrain_view: horizontal flip chance
VIEW_RESIZE = 1.15              # pretrain_view: short side over the view size
POSE_TOL = 1e-6                 # SE3Pose.validate: orthonormality and det(R) = 1


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

@dataclass
class Texture:
    base: np.ndarray          # (3,)
    amp: np.ndarray           # (3,)
    freq: np.ndarray          # (2, 3) cycles along u and v per channel
    phase: np.ndarray         # (3,)
    noise: np.ndarray         # (g, g, 3) blocky value noise
    noise_amp: float

    def sample(self, u, v):
        """float32 colors (3, N) at texture coordinates u, v: float64 (N,) in [0, 1].

        Channel-major, so each pass runs over N contiguous values. The noise
        cell is picked from the float64 coordinates: rounded to float32
        first, a coordinate on a cell boundary could land in the next cell
        and move the color by up to `noise_amp`.
        """
        f32 = np.float32
        color = (2 * np.pi * self.freq[0]).astype(f32)[:, None] * u.astype(f32)
        color += (2 * np.pi * self.freq[1]).astype(f32)[:, None] * v.astype(f32)
        color += self.phase.astype(f32)[:, None]
        np.sin(color, out=color)
        color *= self.amp.astype(f32)[:, None]
        color += self.base.astype(f32)[:, None]
        g = self.noise.shape[0]
        # u, v >= 0, so only u = 1 or v = 1 runs past the last cell
        cell = np.minimum((u * g).astype(np.intp), g - 1)
        cell *= g
        cell += np.minimum((v * g).astype(np.intp), g - 1)
        noise = (self.noise_amp * (self.noise - 0.5)).astype(f32).reshape(g * g, 3).T
        color += noise.take(cell, axis=1)
        return np.clip(color, 0.0, 1.0, out=color)


@dataclass
class Rect:
    """Textured rectangle: origin corner plus two perpendicular edge vectors.

    The rasterizer's texture coordinates u, v solve origin + u edge_u +
    v edge_v for the point a pixel sees, exact for any two independent
    edges; the reference ray caster in the tests projects the point onto
    each edge instead, which agrees only for perpendicular edges, as every
    scene rectangle has.
    """
    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    texture: Texture
    sprite_index: int = -1    # >= 0 marks a tracked sprite


@dataclass
class SceneSpec:
    class_id: int
    statics: list               # list[Rect]
    sprites: list               # list[Rect] at frame 0
    sprite_paths: np.ndarray    # (n_sprites, T, 3) world offsets per frame
    camera_centers: np.ndarray  # (T, 3)
    camera_yaw: np.ndarray      # (T,)
    camera_pitch: np.ndarray    # (T,)
    track_anchors: list         # list[(i, u, v)]: point (u, v) of rectangle i of `_frame_rects`


@dataclass
class SE3Pose:
    """Rotation matrix plus translation, metric units."""
    r: np.ndarray
    t: np.ndarray

    def validate(self):
        if np.linalg.norm(self.r.T @ self.r - np.eye(3)) > POSE_TOL:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(self.r) - 1.0) > POSE_TOL:
            raise ValueError("rotation determinant is not +1")
        return self

    def apply(self, points):
        return points @ self.r.T + self.t


@dataclass
class VideoClip:
    """T x H x W x 3 float32 pixel block in [0, 1]."""
    frames: np.ndarray


@dataclass
class SceneLabels:
    depth: np.ndarray           # (T, H, W) camera-z depth, meters
    pose_first_to_last: SE3Pose
    track_xy: np.ndarray        # (M, T, 2) continuous pixel coords
    track_vis: np.ndarray       # (M, T) bool
    boxes: np.ndarray           # (S, T, 4) normalized (xmin, xmax, ymin, ymax)
    class_id: int


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def camera_extrinsic(yaw, pitch, center):
    """World-to-camera rotation and translation for a yaw/pitch camera."""
    r_c2w = rot_y(yaw) @ rot_x(pitch)
    r = r_c2w.T
    return r, -r @ np.asarray(center)


def intrinsics(width, height):
    """Fixed pinhole: focal = 0.5 * width, principal point at the center."""
    f = 0.5 * width
    return f, f, width / 2.0, height / 2.0


def project(points_world, r, t, width, height):
    """Pinhole projection to continuous pixel coords; returns (xy, cam_z)."""
    cam = points_world @ r.T + t
    fx, fy, cx, cy = intrinsics(width, height)
    z = cam[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = fx * cam[..., 0] / z + cx
        y = fy * cam[..., 1] / z + cy
    return np.stack([x, y], axis=-1), z


# ---------------------------------------------------------------------------
# Scene sampling
# ---------------------------------------------------------------------------

def _texture(rng, bright=False):
    g = int(rng.integers(4, 9))
    base = rng.uniform(0.35, 0.7, 3) if bright else rng.uniform(0.25, 0.55, 3)
    return Texture(
        base=base,
        amp=rng.uniform(0.1, 0.25 if not bright else 0.3, 3),
        freq=rng.uniform(0.5, 4.0, (2, 3)),
        phase=rng.uniform(0, 2 * np.pi, 3),
        noise=rng.random((g, g, 3)),
        noise_amp=float(rng.uniform(0.15, 0.35)),
    )


def _room(rng):
    h = ROOM_HALF
    walls = [
        # back, front
        ((-h, -h, h), (2 * h, 0, 0), (0, 2 * h, 0)),
        ((-h, -h, -h), (2 * h, 0, 0), (0, 2 * h, 0)),
        # left, right
        ((-h, -h, -h), (0, 0, 2 * h), (0, 2 * h, 0)),
        ((h, -h, -h), (0, 0, 2 * h), (0, 2 * h, 0)),
        # floor (y down is positive), ceiling
        ((-h, h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),
        ((-h, -h, -h), (2 * h, 0, 0), (0, 0, 2 * h)),
    ]
    rects = [Rect(np.array(o, float), np.array(u, float), np.array(v, float), _texture(rng))
             for o, u, v in walls]
    # a wall panel floating just off the back wall adds a depth edge
    size = rng.uniform(1.4, 2.4)
    cx, cy = rng.uniform(-1.0, 1.0), rng.uniform(-0.8, 0.8)
    rects.append(Rect(np.array([cx - size / 2, cy - size / 2, 2.3]),
                      np.array([size, 0, 0]), np.array([0, size, 0]),
                      _texture(rng, bright=True)))
    return rects


def _sprites(rng, count):
    rects = []
    for i in range(count):
        w = rng.uniform(0.45, 0.9)
        h = rng.uniform(0.45, 0.9)
        cx = rng.uniform(-1.1, 1.1)
        cy = rng.uniform(-0.9, 0.9)
        cz = rng.uniform(0.6, 1.6)
        rects.append(Rect(np.array([cx - w / 2, cy - h / 2, cz]),
                          np.array([w, 0, 0]), np.array([0, h, 0]),
                          _texture(rng, bright=True), sprite_index=i))
    return rects


def _camera_path(rng, class_id, frames):
    u = np.linspace(-0.5, 0.5, frames)
    base_yaw = rng.uniform(-0.05, 0.05)
    base_pitch = rng.uniform(-0.05, 0.05)
    c0 = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3), rng.uniform(-1.6, -0.9)])
    centers = np.tile(c0, (frames, 1))
    yaw = np.full(frames, base_yaw)
    pitch = np.full(frames, base_pitch)
    sign = rng.choice([-1.0, 1.0])
    if class_id == 0:       # pan
        yaw = base_yaw + sign * rng.uniform(0.14, 0.24) * u
    elif class_id == 1:     # tilt
        pitch = base_pitch + sign * rng.uniform(0.10, 0.18) * u
    elif class_id == 2:     # truck
        centers = centers + np.outer(u, [sign * rng.uniform(0.5, 0.9), 0, 0])
    elif class_id == 3:     # dolly
        centers = centers + np.outer(u, [0, 0, sign * rng.uniform(0.5, 0.9)])
    elif class_id == 4:     # orbit around a pivot in front of the camera
        pivot = np.array([0.0, c0[1], rng.uniform(0.5, 1.0)])
        radius = np.linalg.norm(np.array([c0[0], 0, c0[2] - pivot[2]]))
        theta0 = np.arctan2(c0[0], -(c0[2] - pivot[2]))
        theta = theta0 + sign * rng.uniform(0.16, 0.28) * u
        centers = np.stack([pivot[0] + radius * np.sin(theta),
                            np.full(frames, c0[1]),
                            pivot[2] - radius * np.cos(theta)], axis=1)
        yaw = theta + base_yaw
    return centers, yaw, pitch


def _sprite_paths(rng, class_id, count, frames):
    u = np.linspace(-0.5, 0.5, frames)
    paths = np.zeros((count, frames, 3))
    if class_id >= 5 and count:
        direction = {5: np.array([1.0, 0, 0]),
                     6: np.array([0, 1.0, 0]),
                     7: np.array([0, 0, 1.0])}[class_id]
        sign = rng.choice([-1.0, 1.0])
        dist = rng.uniform(0.6, 1.0) if class_id != 7 else rng.uniform(0.45, 0.8)
        wobble_dir = np.array([0, 1.0, 0]) if class_id == 5 else np.array([1.0, 0, 0])
        wobble = rng.uniform(0.04, 0.12)
        paths[0] = (np.outer(u, sign * dist * direction)
                    + np.outer(np.sin(np.pi * (u + 0.5)), wobble * wobble_dir))
    return paths


def _feasible(sprites, paths, centers):
    """Camera must stay clear of walls and sprites at every frame."""
    margin = 0.2
    if np.any(np.abs(centers) > ROOM_HALF - margin):
        return False
    for sprite, path in zip(sprites, paths):
        center = sprite.origin + path[:, None, :] + (sprite.edge_u + sprite.edge_v) / 2.0
        if np.linalg.norm(center - centers[:, None, :], axis=-1).min() < 0.3:
            return False
    return True


def _sample_scene(seed_key, class_id, frames, attempts=20):
    for attempt in range(attempts):
        rng = np.random.default_rng(list(seed_key) + [attempt])
        statics = _room(rng)
        sprites = _sprites(rng, int(rng.integers(1, 4)))
        paths = _sprite_paths(rng, class_id, len(sprites), frames)
        centers, yaw, pitch = _camera_path(rng, class_id, frames)
        if _feasible(sprites, paths, centers):
            if attempt:
                log.warning("scene %s resampled %d time(s) for feasibility", seed_key, attempt)
            return SceneSpec(class_id, statics, sprites, paths, centers, yaw, pitch,
                             _track_anchors(rng, len(statics), len(sprites)))
    raise RuntimeError(f"could not sample a feasible scene for {seed_key}")


def _track_anchors(rng, n_statics, n_sprites, num_points=12):
    """Half the points sit on sprites (a scene has at least one), half on
    the back wall or panel, as (i, u, v) with i indexing `_frame_rects`."""
    anchors = []
    for i in range(num_points):
        if i % 2 == 0:
            anchors.append((n_statics + i // 2 % n_sprites,
                            rng.uniform(0.12, 0.88), rng.uniform(0.12, 0.88)))
        else:
            # back wall (index 0) or panel (index 6), central region
            rect_idx = 6 if (i % 4 == 3) else 0
            lo, hi = (0.15, 0.85) if rect_idx == 6 else (0.3, 0.7)
            anchors.append((rect_idx, rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return anchors


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _frame_rects(spec, frame):
    """The rectangles of one frame, `statics + sprites`, each sprite moved
    along its path: sprite j is rectangle len(statics) + j."""
    return spec.statics + [Rect(s.origin + spec.sprite_paths[j, frame], s.edge_u, s.edge_v,
                                s.texture, s.sprite_index) for j, s in enumerate(spec.sprites)]


@functools.lru_cache(maxsize=8)
def _pixel_centres(width, height):
    """Camera-plane coordinates of the pixel centres at z = 1: X as (1, W),
    Y as (H, 1), read-only, so pixel (i, j) looks along (X[0, j], Y[i, 0], 1)."""
    fx, fy, cx, cy = intrinsics(width, height)
    xs = ((np.arange(width) + 0.5 - cx) / fx)[None, :]
    ys = ((np.arange(height) + 0.5 - cy) / fy)[:, None]
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys


def _cross(a, b):
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _camera_rect(rect, r_w2c, center):
    """(O, U, V): `rect`'s origin corner and edges in camera coordinates,
    O = R (origin - c), U = R edge_u, V = R edge_v, as float triples.

    Plain scalar arithmetic: on 3-vectors it is several times cheaper than
    numpy calls.
    """
    rows = r_w2c.tolist()

    def rotate(p):
        return tuple(a * p[0] + b * p[1] + c * p[2] for a, b, c in rows)
    return (rotate((rect.origin - center).tolist()),
            rotate(rect.edge_u.tolist()), rotate(rect.edge_v.tolist()))


def _plane_hits(cam, xs, ys):
    """Hits of the pixel rays (X, Y, 1) on a camera-frame rectangle `cam` =
    (O, U, V), for X `xs` (1, w) and Y `ys` (h, 1): (t, u, v, valid), each (h, w).

    A ray d meets the plane at t = (O . n) / (d . n), n = U x V, and the
    triple-product identities give u = d . (V x O) / (d . n) and
    v = d . (O x U) / (d . n). Every dot product with d is affine in X and Y,
    so each is one (h, w) sum of an (h, 1) and a (1, w) array, and the three
    share one reciprocal. t is the hit's camera z; a hit needs
    |d . n| > _RAY_EPS, t > _MIN_T and u, v in [0, 1].
    """
    o, u_edge, v_edge = cam
    n = _cross(u_edge, v_edge)
    a = _cross(v_edge, o)
    b = _cross(o, u_edge)
    denom = xs * n[0] + (ys * n[1] + n[2])
    valid = np.abs(denom) > _RAY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.reciprocal(denom, out=denom)
        t = (o[0] * n[0] + o[1] * n[1] + o[2] * n[2]) * inv
        uu = xs * a[0] + (ys * a[1] + a[2])
        uu *= inv
        vv = xs * b[0] + (ys * b[1] + b[2])
        vv *= inv
    valid &= t > _MIN_T
    valid &= uu >= 0
    valid &= uu <= 1
    valid &= vv >= 0
    valid &= vv <= 1
    return t, uu, vv, valid


def _screen_window(cam, width, height):
    """Pixel window (rows, cols) of slices outside which no ray hits the
    camera-frame rectangle `cam` = (O, U, V) of `_camera_rect`.

    A hit needs t > _MIN_T, and t is the hit's camera z, so the rectangle
    is clipped to the half-space z >= _MIN_T in camera coordinates. Every
    pixel whose ray hits it has its center inside the projection of that
    polygon; the window is the polygon's bounding box padded by a pixel
    and cut to the frame. None when the rectangle cannot be seen (every
    corner at z <= _MIN_T, or a box outside the frame); the full frame when
    a projected corner is not finite.
    """
    o, u, v = cam
    ou = tuple(p + q for p, q in zip(o, u))
    corners = [o, ou, tuple(p + q for p, q in zip(ou, v)), tuple(p + q for p, q in zip(o, v))]
    ahead = [c[2] > _MIN_T for c in corners]
    if not any(ahead):
        return None
    if not all(ahead):
        # Sutherland-Hodgman against the one plane z = _MIN_T
        clipped = []
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            if ahead[i]:
                clipped.append(a)
            if ahead[i] != ahead[(i + 1) % 4]:
                s = (_MIN_T - a[2]) / (b[2] - a[2])
                clipped.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]), _MIN_T))
        corners = clipped
    fx, fy, cx, cy = intrinsics(width, height)
    x = [fx * c[0] / c[2] + cx for c in corners]
    y = [fy * c[1] / c[2] + cy for c in corners]
    if not all(map(math.isfinite, x + y)):
        return slice(0, height), slice(0, width)
    x0, x1 = max(0, math.floor(min(x)) - 1), min(width, math.ceil(max(x)) + 1)
    y0, y1 = max(0, math.floor(min(y)) - 1), min(height, math.ceil(max(y)) + 1)
    if x0 >= x1 or y0 >= y1:
        return None
    return slice(y0, y1), slice(x0, x1)


def render_frame(spec, frame, width, height):
    """One frame: rgb (H,W,3) float32, depth (H,W), surface id (H,W), sprite
    boxes (S,4), normalized (xmin, xmax, ymin, ymax), zero when hidden, and
    the camera pose (3,4), world-to-camera [R | t].

    Each rectangle is rasterized, not ray cast: moved to camera coordinates
    once, it gives depth and texture coordinates as ratios of affine forms
    in the pixel coordinates (`_plane_hits`), evaluated only inside its
    `_screen_window`. The z-buffer takes a hit that is strictly nearer than
    the one it holds, in rectangle order. Each pixel is then shaded once,
    in float32, by its nearest rectangle, and a sprite's box is read from
    its window.
    """
    center = spec.camera_centers[frame]
    r, t = camera_extrinsic(spec.camera_yaw[frame], spec.camera_pitch[frame], center)
    xs, ys = _pixel_centres(width, height)
    rects = _frame_rects(spec, frame)
    cams = [_camera_rect(rect, r, center) for rect in rects]
    windows = [_screen_window(cam, width, height) for cam in cams]
    depth = np.full((height, width), np.inf)
    surf = np.full((height, width), -1, dtype=np.int32)
    us = np.zeros((height, width))
    vs = np.zeros((height, width))
    for ri, (cam, win) in enumerate(zip(cams, windows)):
        if win is None:
            continue
        hit_t, uu, vv, valid = _plane_hits(cam, xs[:, win[1]], ys[win[0]])
        closer = valid & (hit_t < depth[win])
        np.copyto(depth[win], hit_t, where=closer)
        np.copyto(surf[win], ri, where=closer)
        np.copyto(us[win], uu, where=closer)
        np.copyto(vs[win], vv, where=closer)
    rgb = np.zeros((height * width, 3), dtype=np.float32)
    boxes = np.zeros((len(spec.sprites), 4))
    for ri, (rect, win) in enumerate(zip(rects, windows)):
        if win is None:
            continue
        y0, x0 = win[0].start, win[1].start
        rows, cols = np.divmod(np.flatnonzero(surf[win] == ri), win[1].stop - x0)
        if not len(rows):
            continue
        pixels = (rows + y0) * width + (cols + x0)
        rgb[pixels] = rect.texture.sample(us.take(pixels), vs.take(pixels)).T
        if rect.sprite_index >= 0:
            boxes[rect.sprite_index] = ((x0 + cols.min()) / width, (x0 + cols.max() + 1) / width,
                                        (y0 + rows[0]) / height, (y0 + rows[-1] + 1) / height)
    return rgb.reshape(height, width, 3), depth, surf, boxes, np.column_stack([r, t])


def _track_positions(spec, frame):
    """World positions of every track anchor at one frame."""
    rects = _frame_rects(spec, frame)
    return np.array([rects[i].origin + u * rects[i].edge_u + v * rects[i].edge_v
                     for i, u, v in spec.track_anchors])


def render_clip(spec, resolution, frames):
    """Render all frames and assemble exact labels."""
    width = height = resolution
    n_sprites = len(spec.sprites)
    n_tracks = len(spec.track_anchors)

    rgb = np.empty((frames, height, width, 3), dtype=np.float32)
    depth = np.empty((frames, height, width), dtype=np.float32)
    boxes = np.zeros((n_sprites, frames, 4))
    track_xy = np.zeros((n_tracks, frames, 2))
    track_vis = np.zeros((n_tracks, frames), dtype=bool)
    poses = np.zeros((frames, 3, 4))

    for f in range(frames):
        rgb[f], depth[f], _surf, boxes[:, f], poses[f] = render_frame(spec, f, width, height)
        r, t = poses[f, :, :3], poses[f, :, 3]
        xy, z = project(_track_positions(spec, f), r, t, width, height)
        track_xy[:, f] = xy
        in_front = z > 0.01
        xi = np.clip(np.floor(xy[:, 0]).astype(int), 0, width - 1)
        yi = np.clip(np.floor(xy[:, 1]).astype(int), 0, height - 1)
        in_frame = (xy[:, 0] >= 0) & (xy[:, 0] <= width) & \
                   (xy[:, 1] >= 0) & (xy[:, 1] <= height)
        unoccluded = z <= depth[f][yi, xi] + OCCLUSION_TOLERANCE
        track_vis[:, f] = in_front & in_frame & unoccluded

    first = SE3Pose(r=poses[0, :, :3], t=poses[0, :, 3])
    last = SE3Pose(r=poses[-1, :, :3], t=poses[-1, :, 3])
    rel = SE3Pose(r=last.r @ first.r.T, t=last.t - last.r @ first.r.T @ first.t)
    labels = SceneLabels(depth=depth, pose_first_to_last=rel, track_xy=track_xy,
                         track_vis=track_vis, boxes=boxes, class_id=spec.class_id)
    return VideoClip(frames=rgb), labels


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_size(name, value):
    """ValueError naming `value` unless it is an int (not a bool) of at least 1."""
    if not _is_int(value):
        raise ValueError(f"{name} {value!r} must be an integer")
    if value < 1:
        raise ValueError(f"{name} {value} must be >= 1")


def _check_extents(name, value):
    """`value` as a tuple of python ints; ValueError naming it unless it is a
    tuple or list of three ints (not bools), each at least 1."""
    if not isinstance(value, (tuple, list)) or len(value) != 3 or not all(map(_is_int, value)):
        raise ValueError(f"{name} {value!r} must be three integers")
    value = tuple(map(int, value))
    if min(value) < 1:
        raise ValueError(f"{name} {value} must be >= 1 in each extent")
    return value


def generate(seed, count, resolution, frames=16):
    """Lazy iterator over `count` deterministic (VideoClip, SceneLabels) pairs.

    The arguments are checked at the call: seed and count are integers of
    at least 0, resolution and frames of at least 1. Each clip is rendered
    when it is pulled. Clip i draws its scene from the rng stream
    [seed, i, attempt], attempt being the first feasible draw (see
    `_sample_scene`); class ids rotate round-robin so every window of clips
    is balanced.
    """
    for name, value in (("seed", seed), ("count", count)):
        if not _is_int(value) or value < 0:
            raise ValueError(f"{name} {value!r} must be an integer >= 0")
    for name, value in (("resolution", resolution), ("frames", frames)):
        _check_size(name, value)
    return (render_clip(_sample_scene((seed, i), i % NUM_CLASSES, frames), resolution, frames)
            for i in range(count))


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def _lerp_axis(frames, axis, size, keep=slice(None)):
    """Pixel-center linear resampling of one axis to `size`, in the frames'
    dtype; only the output positions `keep`, a slice, are computed."""
    n = frames.shape[axis]
    pos = np.clip((np.arange(size)[keep] + 0.5) * (n / size) - 0.5, 0, n - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    weight = (pos - lo).astype(frames.dtype).reshape((-1,) + (1,) * (frames.ndim - axis - 1))
    a = np.take(frames, lo, axis=axis)
    b = np.take(frames, hi, axis=axis)
    b -= a
    b *= weight
    b += a
    return b


def resize_bilinear(frames, out_h, out_w):
    """Pixel-center bilinear resize over the two spatial axes of (T,H,W,C).

    Separable, rows then columns, in the frames' float dtype; an axis that
    keeps its size is copied unchanged, so a same-size resize is the identity.
    """
    out = frames
    if out_h != out.shape[1]:
        out = _lerp_axis(out, 1, out_h)
    if out_w != out.shape[2]:
        out = _lerp_axis(out, 2, out_w)
    return out.copy() if out is frames else out


def resize_nearest(maps, out_h, out_w):
    """Nearest-neighbor resize for label maps shaped (T,H,W)."""
    t, h, w = maps.shape
    yi = np.clip(((np.arange(out_h) + 0.5) * (h / out_h)).astype(int), 0, h - 1)
    xi = np.clip(((np.arange(out_w) + 0.5) * (w / out_w)).astype(int), 0, w - 1)
    return maps[:, yi][:, :, xi]


def _sample_crop(rng, h, w, attempts=10):
    for _ in range(attempts):
        area = rng.uniform(*CROP_AREA_RANGE) * h * w
        aspect = np.exp(rng.uniform(np.log(CROP_ASPECT_RANGE[0]), np.log(CROP_ASPECT_RANGE[1])))
        cw = int(round(np.sqrt(area * aspect)))
        ch = int(round(np.sqrt(area / aspect)))
        if 0 < cw <= w and 0 < ch <= h:
            y0 = int(rng.integers(0, h - ch + 1))
            x0 = int(rng.integers(0, w - cw + 1))
            return y0, x0, ch, cw
    side = min(h, w)
    return (h - side) // 2, (w - side) // 2, side, side


def augment(clip, labels, rng, out_hw=None, crop=None, flip=None):
    """Random resized crop plus horizontal flip, with consistent labels.

    crop is (y0, x0, ch, cw) in source pixels (sampled when None); out_hw
    defaults to the crop size. Tracks leaving the crop go occluded, boxes
    clip to the crop, depth values are resampled unchanged, the relative
    pose is mirror-conjugated on flips.
    """
    _, h, w, _ = clip.frames.shape
    if crop is None:
        crop = _sample_crop(rng, h, w)
    if flip is None:
        flip = bool(rng.random() < FLIP_P)
    y0, x0, ch, cw = crop
    if not (_is_int(y0) and _is_int(x0)):
        raise ValueError(f"crop {crop} must start at integer pixels")
    if y0 < 0 or x0 < 0 or y0 + ch > h or x0 + cw > w:
        raise ValueError(f"crop {crop} does not fit inside {h}x{w}")
    out_h, out_w = out_hw if out_hw is not None else (ch, cw)
    for name, extents in (("crop size", (ch, cw)), ("out_hw", (out_h, out_w))):
        if not all(_is_int(e) for e in extents):
            raise ValueError(f"{name} {extents} must be integers")
        if min(extents) < 1:
            raise ValueError(f"{name} {extents} must be >= 1 in each extent")
    sy, sx = out_h / ch, out_w / cw

    frames = clip.frames[:, y0:y0 + ch, x0:x0 + cw]
    depth = labels.depth[:, y0:y0 + ch, x0:x0 + cw]
    if (out_h, out_w) != (ch, cw):
        frames = resize_bilinear(frames, out_h, out_w)
        depth = resize_nearest(depth, out_h, out_w)

    xy = labels.track_xy.copy()
    xy[..., 0] = (xy[..., 0] - x0) * sx
    xy[..., 1] = (xy[..., 1] - y0) * sy
    inside = (xy[..., 0] >= 0) & (xy[..., 0] <= out_w) & \
             (xy[..., 1] >= 0) & (xy[..., 1] <= out_h)
    vis = labels.track_vis & inside

    boxes = labels.boxes.copy()
    boxes[..., :2] = (boxes[..., :2] * w - x0) * sx / out_w
    boxes[..., 2:] = (boxes[..., 2:] * h - y0) * sy / out_h
    boxes = np.clip(boxes, 0.0, 1.0)
    degenerate = (boxes[..., 1] <= boxes[..., 0]) | (boxes[..., 3] <= boxes[..., 2])
    boxes[degenerate] = 0.0

    pose = labels.pose_first_to_last
    if flip:
        frames, depth = frames[:, :, ::-1], depth[:, :, ::-1]
        xy[..., 0] = out_w - xy[..., 0]
        boxes[..., :2] = 1.0 - boxes[..., 1::-1]
        mirror = np.diag([-1.0, 1.0, 1.0])
        pose = SE3Pose(r=mirror @ pose.r @ mirror, t=mirror @ pose.t)

    return VideoClip(frames=np.ascontiguousarray(frames)), SceneLabels(
        depth=depth.astype(labels.depth.dtype), pose_first_to_last=pose,
        track_xy=xy, track_vis=vis, boxes=boxes, class_id=labels.class_id)


def pretrain_view(clip, rng, out_size):
    """Pretraining augmentation: resize the short side to VIEW_RESIZE times
    `out_size`, take a random out_size x out_size crop of every frame, and
    flip it with chance FLIP_P.

    The crop is placed on the resized shape, so only its rows and columns
    are resampled, with the bits of `resize_bilinear` followed by the crop.
    """
    _check_size("out_size", out_size)
    frames = clip.frames
    _, h, w, _ = frames.shape
    scale = int(round(VIEW_RESIZE * out_size)) / min(h, w)
    size_h, size_w = int(round(h * scale)), int(round(w * scale))
    y0 = int(rng.integers(0, size_h - out_size + 1))
    x0 = int(rng.integers(0, size_w - out_size + 1))
    rows, cols = slice(y0, y0 + out_size), slice(x0, x0 + out_size)
    view = frames[:, rows] if size_h == h else _lerp_axis(frames, 1, size_h, rows)
    view = view[:, :, cols] if size_w == w else _lerp_axis(view, 2, size_w, cols)
    if rng.random() < FLIP_P:
        view = view[:, :, ::-1]
    return np.ascontiguousarray(view)


# ---------------------------------------------------------------------------
# Clip cache
# ---------------------------------------------------------------------------

_CLIP_TENSORS = frozenset({"frames", "depth", "pose_r", "pose_t", "track_xy", "track_vis",
                           "boxes"})


def save_clip(path, clip, labels):
    pose = labels.pose_first_to_last
    save_tensors(path, {
        "frames": clip.frames,
        "depth": labels.depth,
        "pose_r": pose.r,
        "pose_t": pose.t,
        "track_xy": labels.track_xy,
        "track_vis": labels.track_vis.astype(np.float32),
        "boxes": labels.boxes,
    }, config={"class_id": int(labels.class_id)})


def load_clip(path):
    """A clip and its labels saved by `save_clip`. A file that lacks any of
    them (a model checkpoint, say) raises ValueError naming the path and keys."""
    tensors, cfg = load_tensors(path)
    missing = sorted(_CLIP_TENSORS - tensors.keys()) + sorted({"class_id"} - cfg.keys())
    if missing:
        raise ValueError(f"{path}: not a clip file: lacks {missing}")
    clip = VideoClip(frames=tensors["frames"])
    labels = SceneLabels(
        depth=tensors["depth"],
        pose_first_to_last=SE3Pose(r=tensors["pose_r"].astype(np.float64),
                                   t=tensors["pose_t"].astype(np.float64)),
        track_xy=tensors["track_xy"],
        track_vis=tensors["track_vis"] > 0.5,
        boxes=tensors["boxes"],
        class_id=int(cfg["class_id"]),
    )
    return clip, labels
