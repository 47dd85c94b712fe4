"""Deterministic synthetic 4D scenes with exact ground truth.

Each clip is a textured 5 m room (6 walls plus a wall panel) containing
one to three billboard sprites, viewed by a pinhole camera whose motion
follows one of eight motion-pattern classes. Frames are rendered by
z-buffered ray casting against the rectangles, so the depth map, the
camera poses, the point tracks and the sprite boxes are exact by
construction. Clip `i` of a stream draws all randomness from
`default_rng([seed, i])`.

Conventions: world x right, y down, z forward; the camera looks toward
+z. Extrinsics map world to camera: Xc = R (Xw - c). Intrinsics are fixed
at focal = 0.5 * image width with the principal point at the center, and
continuous pixel coordinates run 0..W with pixel (i, j) centered at
(j + 0.5, i + 0.5).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .mae import VideoClip
from .readout import SE3Pose

log = logging.getLogger(__name__)

ROOM_HALF = 2.5
NUM_CLASSES = 8
CLASS_NAMES = (
    "camera_pan", "camera_tilt", "camera_truck", "camera_dolly",
    "camera_orbit", "object_horizontal", "object_vertical", "object_depth",
)
OCCLUSION_TOLERANCE = 0.1   # meters of depth slack in the z-buffer test
_RAY_EPS = 1e-9


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
        """Color at texture coordinates; u, v arrays in [0, 1]."""
        angles = 2 * np.pi * (u[..., None] * self.freq[0] + v[..., None] * self.freq[1])
        color = self.base + self.amp * np.sin(angles + self.phase)
        g = self.noise.shape[0]
        iu = np.clip((u * g).astype(int), 0, g - 1)
        iv = np.clip((v * g).astype(int), 0, g - 1)
        color = color + self.noise_amp * (self.noise[iu, iv] - 0.5)
        return np.clip(color, 0.0, 1.0)


@dataclass
class Rect:
    """Textured parallelogram: origin corner plus two edge vectors."""
    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    texture: Texture
    sprite_index: int = -1    # >= 0 marks a tracked sprite

    def displaced(self, offset):
        return Rect(origin=self.origin + offset, edge_u=self.edge_u,
                    edge_v=self.edge_v, texture=self.texture,
                    sprite_index=self.sprite_index)


@dataclass
class SceneSpec:
    seed_key: tuple
    class_id: int
    statics: list              # list[Rect]
    sprites: list               # list[Rect] at frame 0
    sprite_paths: np.ndarray    # (n_sprites, T, 3) world offsets per frame
    camera_centers: np.ndarray  # (T, 3)
    camera_yaw: np.ndarray      # (T,)
    camera_pitch: np.ndarray    # (T,)
    track_anchors: list         # list[(rect_ref, u, v)] with rect_ref ("static"/"sprite", idx)


@dataclass
class SceneLabels:
    depth: np.ndarray           # (T, H, W) camera-z depth, meters
    pose_first_to_last: SE3Pose
    camera_poses: np.ndarray    # (T, 3, 4) world-to-camera [R | t]
    track_xy: np.ndarray        # (M, T, 2) continuous pixel coords
    track_vis: np.ndarray       # (M, T) bool
    track_world: np.ndarray     # (M, T, 3) world positions
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


def _feasible(spec):
    """Camera must stay clear of walls and sprites at every frame."""
    margin = 0.2
    if np.any(np.abs(spec.camera_centers) > ROOM_HALF - margin):
        return False
    for si, sprite in enumerate(spec.sprites):
        corners = sprite.origin + spec.sprite_paths[si][:, None, :]
        center = corners + (sprite.edge_u + sprite.edge_v) / 2.0
        dist = np.linalg.norm(center - spec.camera_centers[:, None, :], axis=-1)
        if dist.min() < 0.3:
            return False
    return True


def _sample_scene(seed_key, class_id, frames, attempts=20):
    for attempt in range(attempts):
        rng = np.random.default_rng(list(seed_key) + [attempt])
        statics = _room(rng)
        sprites = _sprites(rng, int(rng.integers(1, 4)))
        spec = SceneSpec(
            seed_key=seed_key, class_id=class_id, statics=statics, sprites=sprites,
            sprite_paths=_sprite_paths(rng, class_id, len(sprites), frames),
            camera_centers=None, camera_yaw=None, camera_pitch=None,
            track_anchors=None,
        )
        spec.camera_centers, spec.camera_yaw, spec.camera_pitch = \
            _camera_path(rng, class_id, frames)
        if _feasible(spec):
            if attempt:
                log.warning("scene %s resampled %d time(s) for feasibility", seed_key, attempt)
            spec.track_anchors = _track_anchors(rng, spec)
            return spec
    raise RuntimeError(f"could not sample a feasible scene for {seed_key}")


def _track_anchors(rng, spec, num_points=12):
    """Half the points sit on sprites, half on the back wall / panel."""
    anchors = []
    n_sprites = len(spec.sprites)
    for i in range(num_points):
        if i % 2 == 0 and n_sprites:
            anchors.append(("sprite", i // 2 % n_sprites,
                            rng.uniform(0.12, 0.88), rng.uniform(0.12, 0.88)))
        else:
            # back wall (index 0) or panel (index 6), central region
            rect_idx = 6 if (i % 4 == 3) else 0
            lo, hi = (0.15, 0.85) if rect_idx == 6 else (0.3, 0.7)
            anchors.append(("static", rect_idx, rng.uniform(lo, hi), rng.uniform(lo, hi)))
    return anchors


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _frame_rects(spec, frame):
    rects = list(spec.statics)
    for si, sprite in enumerate(spec.sprites):
        rects.append(sprite.displaced(spec.sprite_paths[si, frame]))
    return rects


def _ray_dirs_world(r_w2c, width, height):
    fx, fy, cx, cy = intrinsics(width, height)
    xs = (np.arange(width) + 0.5 - cx) / fx
    ys = (np.arange(height) + 0.5 - cy) / fy
    gx, gy = np.meshgrid(xs, ys)
    dirs_cam = np.stack([gx, gy, np.ones_like(gx)], axis=-1)   # z = 1: t equals depth
    return dirs_cam @ r_w2c                                     # = dirs_cam @ R = R^T dirs

def _intersect(rect, origin, dirs):
    """Ray-parallelogram hits: returns (t, u, v, valid) arrays."""
    normal = np.cross(rect.edge_u, rect.edge_v)
    denom = dirs @ normal
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((rect.origin - origin) @ normal) / denom
    hit = origin + t[..., None] * dirs
    rel = hit - rect.origin
    uu = (rel @ rect.edge_u) / (rect.edge_u @ rect.edge_u)
    vv = (rel @ rect.edge_v) / (rect.edge_v @ rect.edge_v)
    valid = (np.abs(denom) > _RAY_EPS) & (t > 1e-6) & \
            (uu >= 0) & (uu <= 1) & (vv >= 0) & (vv <= 1)
    return t, uu, vv, valid


def render_frame(spec, frame, width, height):
    """One frame: returns (rgb (H,W,3), depth (H,W), surface id (H,W))."""
    r, _t = camera_extrinsic(spec.camera_yaw[frame], spec.camera_pitch[frame],
                             spec.camera_centers[frame])
    center = spec.camera_centers[frame]
    dirs = _ray_dirs_world(r, width, height)
    rects = _frame_rects(spec, frame)
    depth = np.full((height, width), np.inf)
    surf = np.full((height, width), -1, dtype=np.int32)
    us = np.zeros((height, width))
    vs = np.zeros((height, width))
    for ri, rect in enumerate(rects):
        t, uu, vv, valid = _intersect(rect, center, dirs)
        closer = valid & (t < depth)
        depth[closer] = t[closer]
        surf[closer] = ri
        us[closer] = uu[closer]
        vs[closer] = vv[closer]
    rgb = np.zeros((height, width, 3))
    for ri, rect in enumerate(rects):
        mask = surf == ri
        if mask.any():
            rgb[mask] = rect.texture.sample(us[mask], vs[mask])
    return rgb, depth, surf


def _track_positions(spec, frame):
    """World positions of every track anchor at one frame."""
    points = []
    for kind, idx, u, v in spec.track_anchors:
        rect = spec.statics[idx] if kind == "static" else spec.sprites[idx]
        offset = 0.0 if kind == "static" else spec.sprite_paths[idx, frame]
        points.append(rect.origin + offset + u * rect.edge_u + v * rect.edge_v)
    return np.array(points)


def render_clip(spec, resolution, frames):
    """Render all frames and assemble exact labels."""
    width = height = resolution
    n_sprites = len(spec.sprites)
    n_tracks = len(spec.track_anchors)
    n_statics = len(spec.statics)

    rgb = np.empty((frames, height, width, 3), dtype=np.float32)
    depth = np.empty((frames, height, width), dtype=np.float32)
    boxes = np.zeros((n_sprites, frames, 4))
    track_xy = np.zeros((n_tracks, frames, 2))
    track_vis = np.zeros((n_tracks, frames), dtype=bool)
    track_world = np.zeros((n_tracks, frames, 3))
    poses = np.zeros((frames, 3, 4))

    for f in range(frames):
        frame_rgb, frame_depth, surf = render_frame(spec, f, width, height)
        rgb[f] = frame_rgb
        depth[f] = frame_depth
        r, t = camera_extrinsic(spec.camera_yaw[f], spec.camera_pitch[f],
                                spec.camera_centers[f])
        poses[f, :, :3] = r
        poses[f, :, 3] = t
        for si in range(n_sprites):
            ys, xs = np.nonzero(surf == n_statics + si)
            if len(xs):
                boxes[si, f] = (xs.min() / width, (xs.max() + 1) / width,
                                ys.min() / height, (ys.max() + 1) / height)
        world = _track_positions(spec, f)
        track_world[:, f] = world
        xy, z = project(world, r, t, width, height)
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
    labels = SceneLabels(depth=depth, pose_first_to_last=rel, camera_poses=poses,
                         track_xy=track_xy, track_vis=track_vis, track_world=track_world,
                         boxes=boxes, class_id=spec.class_id)
    return VideoClip(frames=rgb, frame_stride=2), labels


def generate(seed, count, resolution, frames=16):
    """Yield `count` deterministic (VideoClip, SceneLabels) pairs.

    Clip i uses the rng stream [seed, i]; class ids rotate round-robin so
    every window of clips is balanced.
    """
    for index in range(count):
        class_id = index % NUM_CLASSES
        spec = _sample_scene((seed, index), class_id, frames)
        yield render_clip(spec, resolution, frames)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def _lerp_axis(frames, axis, size):
    """Pixel-center linear resampling of one axis to `size`, in the frames' dtype."""
    n = frames.shape[axis]
    pos = np.clip((np.arange(size) + 0.5) * (n / size) - 0.5, 0, n - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n - 1)
    weight = (pos - lo).astype(frames.dtype).reshape((size,) + (1,) * (frames.ndim - axis - 1))
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


def _sample_crop(rng, h, w, area_range, aspect_range, attempts=10):
    for _ in range(attempts):
        area = rng.uniform(*area_range) * h * w
        aspect = np.exp(rng.uniform(np.log(aspect_range[0]), np.log(aspect_range[1])))
        cw = int(round(np.sqrt(area * aspect)))
        ch = int(round(np.sqrt(area / aspect)))
        if 0 < cw <= w and 0 < ch <= h:
            y0 = int(rng.integers(0, h - ch + 1))
            x0 = int(rng.integers(0, w - cw + 1))
            return y0, x0, ch, cw
    side = min(h, w)
    return (h - side) // 2, (w - side) // 2, side, side


def augment(clip, labels, rng, out_hw=None, crop=None, flip=None,
            area_range=(0.3, 1.0), aspect_range=(0.5, 2.0), flip_p=0.5):
    """Random resized crop plus horizontal flip, with consistent labels.

    crop is (y0, x0, ch, cw) in source pixels (sampled when None); out_hw
    defaults to the crop size. Tracks leaving the crop go occluded, boxes
    clip to the crop, depth values are resampled unchanged, the relative
    pose is mirror-conjugated on flips.
    """
    frames = clip.frames
    t, h, w, _ = frames.shape
    if crop is None:
        crop = _sample_crop(rng, h, w, area_range, aspect_range)
    if flip is None:
        flip = bool(rng.random() < flip_p)
    y0, x0, ch, cw = crop
    if y0 < 0 or x0 < 0 or y0 + ch > h or x0 + cw > w:
        raise ValueError(f"crop {crop} does not fit inside {h}x{w}")
    out_h, out_w = out_hw if out_hw is not None else (ch, cw)
    sy, sx = out_h / ch, out_w / cw

    cropped = frames[:, y0:y0 + ch, x0:x0 + cw]
    if (out_h, out_w) != (ch, cw):
        cropped = resize_bilinear(cropped, out_h, out_w)
    if flip:
        cropped = cropped[:, :, ::-1]
    new_clip = VideoClip(frames=np.ascontiguousarray(cropped), frame_stride=clip.frame_stride)
    if labels is None:
        return new_clip, None

    depth = labels.depth[:, y0:y0 + ch, x0:x0 + cw]
    if (out_h, out_w) != (ch, cw):
        depth = resize_nearest(depth, out_h, out_w)
    if flip:
        depth = depth[:, :, ::-1]

    xy = labels.track_xy.copy()
    xy[..., 0] = (xy[..., 0] - x0) * sx
    xy[..., 1] = (xy[..., 1] - y0) * sy
    inside = (xy[..., 0] >= 0) & (xy[..., 0] <= out_w) & \
             (xy[..., 1] >= 0) & (xy[..., 1] <= out_h)
    vis = labels.track_vis & inside
    if flip:
        xy[..., 0] = out_w - xy[..., 0]

    boxes = labels.boxes.copy()
    boxes[..., :2] = (boxes[..., :2] * w - x0) * sx / out_w
    boxes[..., 2:] = (boxes[..., 2:] * h - y0) * sy / out_h
    boxes = np.clip(boxes, 0.0, 1.0)
    degenerate = (boxes[..., 1] <= boxes[..., 0]) | (boxes[..., 3] <= boxes[..., 2])
    boxes[degenerate] = 0.0
    if flip:
        flipped = boxes.copy()
        flipped[..., 0] = 1.0 - boxes[..., 1]
        flipped[..., 1] = 1.0 - boxes[..., 0]
        boxes = flipped

    pose = labels.pose_first_to_last
    camera_poses = labels.camera_poses
    if flip:
        mirror = np.diag([-1.0, 1.0, 1.0])
        pose = SE3Pose(r=mirror @ pose.r @ mirror, t=mirror @ pose.t)
        camera_poses = camera_poses.copy()
        camera_poses[:, :, :3] = mirror @ camera_poses[:, :, :3] @ mirror
        camera_poses[:, :, 3] = camera_poses[:, :, 3] @ mirror

    new_labels = SceneLabels(
        depth=depth.astype(labels.depth.dtype), pose_first_to_last=pose,
        camera_poses=camera_poses, track_xy=xy, track_vis=vis,
        track_world=labels.track_world, boxes=boxes, class_id=labels.class_id)
    return new_clip, new_labels


def pretrain_view(clip, rng, out_size, min_resize=1.15, flip_p=0.5, out_frames=None):
    """Pretraining augmentation: resize the short side to `min_resize` times
    the target, take a random spatial crop and temporal crop, maybe flip."""
    frames = clip.frames
    t, h, w, _ = frames.shape
    small = min(h, w)
    target_small = int(round(min_resize * out_size))
    if small != target_small:
        scale = target_small / small
        frames = resize_bilinear(frames, int(round(h * scale)), int(round(w * scale)))
        t, h, w, _ = frames.shape
    if out_frames is not None and t > out_frames:
        t0 = int(rng.integers(0, t - out_frames + 1))
        frames = frames[t0:t0 + out_frames]
    y0 = int(rng.integers(0, h - out_size + 1))
    x0 = int(rng.integers(0, w - out_size + 1))
    view = frames[:, y0:y0 + out_size, x0:x0 + out_size]
    if rng.random() < flip_p:
        view = view[:, :, ::-1]
    return np.ascontiguousarray(view)


# ---------------------------------------------------------------------------
# Clip cache
# ---------------------------------------------------------------------------

def save_clip(path, clip, labels):
    from .checkpoint import save_tensors
    pose = labels.pose_first_to_last
    save_tensors(path, {
        "frames": clip.frames,
        "depth": labels.depth,
        "pose_r": pose.r,
        "pose_t": pose.t,
        "camera_poses": labels.camera_poses,
        "track_xy": labels.track_xy,
        "track_vis": labels.track_vis.astype(np.float32),
        "track_world": labels.track_world,
        "boxes": labels.boxes,
    }, config={"class_id": int(labels.class_id), "frame_stride": int(clip.frame_stride)})


def load_clip(path):
    from .checkpoint import load_tensors
    tensors, cfg = load_tensors(path)
    clip = VideoClip(frames=tensors["frames"], frame_stride=cfg["frame_stride"])
    labels = SceneLabels(
        depth=tensors["depth"],
        pose_first_to_last=SE3Pose(r=tensors["pose_r"].astype(np.float64),
                                   t=tensors["pose_t"].astype(np.float64)),
        camera_poses=tensors["camera_poses"],
        track_xy=tensors["track_xy"],
        track_vis=tensors["track_vis"] > 0.5,
        track_world=tensors["track_world"],
        boxes=tensors["boxes"],
        class_id=int(cfg["class_id"]),
    )
    return clip, labels
