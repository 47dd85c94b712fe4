"""Independent reference implementations used as test oracles.

Everything here is deliberately slow and direct (scalar loops, brute-force
counting, rasterization, finite differences) and never calls the code paths
it is used to check.
"""

import math

import numpy as np


def finite_diff_grad(f, arrays, index, step=1e-5):
    """Central-difference gradient of scalar f(*arrays) w.r.t. arrays[index]."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    base = arrays[index]
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f(*arrays))
        flat[i] = orig - step
        lo = float(f(*arrays))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def finite_diff_entries(f, array, entries, step=1e-5):
    """Central differences at a subset of flat indices of `array` (mutated in place)."""
    flat = array.reshape(-1)
    grads = []
    for i in entries:
        orig = flat[i]
        flat[i] = orig + step
        hi = float(f())
        flat[i] = orig - step
        lo = float(f())
        flat[i] = orig
        grads.append((hi - lo) / (2.0 * step))
    return np.array(grads)


def rel_err(a, b, floor=1e-3):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def trunc_normal_full_scan(rng, shape, std=0.02):
    """Truncated normal that rescans the whole array after every redraw."""
    x = rng.standard_normal(shape)
    while True:
        bad = np.abs(x) > 2.0
        if not bad.any():
            break
        x[bad] = rng.standard_normal(int(bad.sum()))
    return x * std


def mse_loop(a, b):
    total = 0.0
    fa, fb = np.asarray(a).reshape(-1), np.asarray(b).reshape(-1)
    for x, y in zip(fa, fb):
        total += (float(x) - float(y)) ** 2
    return total / fa.size


def gelu_scalar(x):
    """Exact Gaussian-CDF GELU at one point, via math.erf."""
    return x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gelu_float64(x):
    """x·Phi(x) and its derivative in float64, with Phi(x) = erfc(-x/sqrt2)/2,
    which has no cancellation in the negative tail."""
    from scipy.special import erfc
    x = np.asarray(x, dtype=np.float64)
    cdf = 0.5 * erfc(-x / math.sqrt(2.0))
    return x * cdf, cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def mlp_float64(x, w1, b1, w2, b2):
    """The two-layer perceptron gelu(x w1 + b1) w2 + b2 in float64, the GELU
    from `gelu_float64`."""
    x, w1, b1, w2, b2 = (np.asarray(a, dtype=np.float64) for a in (x, w1, b1, w2, b2))
    return gelu_float64(x @ w1 + b1)[0] @ w2 + b2


def gelu_op(a):
    """GELU as a graph node of its own, from numcore's kernel into a fresh
    output; backward multiplies by the kept slope. The middle op of
    `mlp_chain`, and a generic nonlinearity for graph tests."""
    from stmae import numcore as nc
    a = nc._wrap(a)
    x = a.data
    y = np.empty(x.shape, x.dtype)
    slope = np.empty(x.shape, x.dtype) if a.requires_grad else None
    nc._gelu_into(x, y, slope)
    return nc._make(y, [(a, lambda g: g * slope)])


def mlp_chain(x, w1, b1, w2, b2):
    """The MLP as three graph nodes, affine -> `gelu_op` -> affine, each
    making its own full-size arrays: what numcore.mlp fuses into one."""
    from stmae import numcore as nc
    return nc.affine(gelu_op(nc.affine(x, w1, b1)), w2, b2)


def squared_error_chain(a, target):
    """(a - target)² as two graph nodes, `sub` then `mul` of the difference
    by itself, each making its own full-size arrays: what
    numcore.squared_error fuses into one node that keeps no difference."""
    from stmae import numcore as nc
    diff = nc.sub(a, nc.Tensor(target))
    return nc.mul(diff, diff)


def layer_norm_op(a):
    """Normalization of the last axis alone as a graph node, with no scale or
    bias; backward keeps the normalized output and the per-row inverse
    deviation. The first op of `layer_norm_chain`."""
    from stmae import numcore as nc
    a = nc._wrap(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + nc.LN_EPS)
    y = centered * inv_std

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return inv_std * (g - gm - y * gym)

    return nc._make(y, [(a, vjp)])


def layer_norm_chain(x, scale, bias):
    """The affine layer norm as three graph nodes, `layer_norm_op` -> `mul`
    by the scale -> `add` of the bias, each making its own full-size arrays:
    what numcore.layer_norm fuses into one node that keeps no output."""
    from stmae import numcore as nc
    return nc.add(nc.mul(layer_norm_op(x), scale), bias)


def attention_unblocked(q, k, v, heads):
    """Multi-head softmax attention over the whole score tensor at once, with
    the same per-row arithmetic as numcore.attention (so equal bits)."""
    d = q.shape[-1]
    dh = d // heads

    def split(x):
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-3, -2)

    s = split(q) @ split(k).swapaxes(-1, -2)
    s *= np.asarray(1.0 / np.sqrt(dh), dtype=s.dtype)
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    out = (s @ split(v)).swapaxes(-3, -2)
    return out.reshape(out.shape[:-2] + (d,))


def _sum_to(grad, shape):
    """Sum `grad` down to the broadcast operand `shape`: leading axes first,
    then the axes of extent 1."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def attention_kept_weights(q, k, v, heads, g, wanted, rows=None, weights_row_term=False):
    """Multi-head softmax attention whose backward reads the whole weights
    array kept from the forward: the output and the gradients {index: grad}
    of the inputs `wanted` (0 q, 1 k, 2 v) for the output gradient `g`.

    Plain numpy over the whole score tensor, with numcore.attention's
    per-row arithmetic and its VJP expressions, so equal bits. With `rows`,
    the forward builds the weights and the output `rows` query rows at a
    time, every head of a block in one batched product, and a last block
    of fewer than 8 rows joins the block before it: numcore's row blocks,
    whose row counts a product's bits can depend on. The weights are kept
    only when a gradient is wanted.

    The softmax Jacobian's row term D is taken from the output, each row's
    D = g · o as in numcore (FlashAttention-2, Dao 2023). With
    `weights_row_term` it is the equal sum over the weights, rowsum(gs * s),
    gs being the weights' gradient: the same gradients in exact arithmetic,
    not in bits.
    """
    d = q.shape[-1]
    dh = d // heads
    nq = q.shape[-2]

    def split(x):
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-3, -2)

    def merge(x):
        x = x.swapaxes(-3, -2)
        return x.reshape(x.shape[:-2] + (d,))

    qh, kh, vh = split(q), split(k), split(v)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=q.dtype)
    starts = [0] if rows is None else list(range(0, nq, rows))
    if len(starts) > 1 and nq - starts[-1] < 8:
        starts.pop()
    stops = starts[1:] + [nq]
    lead = np.broadcast_shapes(qh.shape[:-2], kh.shape[:-2])
    s = np.empty(lead + (nq, k.shape[-2]), scale.dtype) if wanted else None
    oh = np.empty(lead + (nq, dh), q.dtype)
    for start, stop in zip(starts, stops):
        w = qh[..., start:stop, :] @ kh.swapaxes(-1, -2)
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        if wanted:
            s[..., start:stop, :] = w
        oh[..., start:stop, :] = w @ vh
    out = merge(oh)
    gh = split(g) if wanted else None
    grads = {}
    if 2 in wanted:
        grads[2] = merge(_sum_to(s.swapaxes(-1, -2) @ gh, vh.shape))
    if 0 in wanted or 1 in wanted:
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= ((gs * s) if weights_row_term else (gh * oh)).sum(axis=-1, keepdims=True)
        gs *= s
        gs *= scale
        if 0 in wanted:
            grads[0] = merge(_sum_to(gs @ kh, qh.shape))
        if 1 in wanted:
            grads[1] = merge(_sum_to(qh.swapaxes(-1, -2) @ gs, kh.swapaxes(-1, -2).shape)
                             .swapaxes(-1, -2))
    return out, grads


def backward_copying(loss):
    """Reverse-mode walk that copies every first contribution and keeps the
    graph: every reached node and leaf ends with its own `.grad`, and the
    graph can be walked again."""
    root = loss if loss._node is None else loss._node
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((target, False) for target, _ in _edges(node)
                         if id(target) not in seen)
    root.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        for target, vjp in _edges(node):
            contribution = vjp(node.grad)
            if target.grad is None:
                target.grad = contribution.copy()
            else:
                target.grad += contribution


def _edges(node):
    """A graph node's (target, vjp) edges; a leaf Tensor has none."""
    return getattr(node, "edges", ())


def resize_bilinear_4tap(frames, out_h, out_w):
    """Pixel-center bilinear resize of (T,H,W,C) in float64, blending the four
    neighbours of each output pixel at once (not axis by axis)."""
    t, h, w, c = frames.shape
    frames = np.asarray(frames, dtype=np.float64)
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None, None]
    wx = (xs - x0)[None, None, :, None]
    return (frames[:, y0][:, :, x0] * (1 - wy) * (1 - wx) + frames[:, y0][:, :, x1] * (1 - wy) * wx
            + frames[:, y1][:, :, x0] * wy * (1 - wx) + frames[:, y1][:, :, x1] * wy * wx)


def epe_loop(r_hat, t_hat, r, t, points):
    total = 0.0
    for p in points:
        a = np.array([sum(r[i][j] * p[j] for j in range(3)) + t[i] for i in range(3)])
        b = np.array([sum(r_hat[i][j] * p[j] for j in range(3)) + t_hat[i] for i in range(3)])
        total += math.sqrt(sum((a[i] - b[i]) ** 2 for i in range(3)))
    return total / len(points)


def absrel_loop(d_pred, d_gt, mask, eps):
    total, count = 0.0, 0
    for p, g, m in zip(np.asarray(d_pred).reshape(-1),
                       np.asarray(d_gt).reshape(-1),
                       np.asarray(mask).reshape(-1)):
        if m:
            total += abs(float(p) - float(g)) / (float(g) + eps)
            count += 1
    return total / count


def iou_rasterized(box_a, box_b, grid=512, extent=2.0):
    """Pixel-counting IoU of two (xmin,xmax,ymin,ymax) boxes on a grid.

    Boxes are assumed to lie within [-extent/2 .. 1+extent/2] roughly; the
    raster covers [-0.5, 1.5] in both axes by default.
    """
    lo, hi = -0.5 * (extent - 1.0), 0.5 * (extent + 1.0)
    xs = np.linspace(lo, hi, grid, endpoint=False) + (hi - lo) / (2 * grid)
    ys = xs
    gx, gy = np.meshgrid(xs, ys, indexing="xy")

    def inside(b):
        return (gx >= b[0]) & (gx <= b[1]) & (gy >= b[2]) & (gy <= b[3])

    a, b = inside(box_a), inside(box_b)
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return np.count_nonzero(a & b) / union


def jaccard_counting(pred_xy, pred_vis, gt_xy, gt_vis, thresholds=(1, 2, 4, 8, 16)):
    """Average-Jaccard by explicit per-point counting.

    pred_xy/gt_xy: (tracks, frames, 2) pixel positions; vis: boolean masks.
    """
    values = []
    for thr in thresholds:
        tp = fp = fn = 0
        for ti in range(gt_xy.shape[0]):
            for fi in range(gt_xy.shape[1]):
                pv, gv = bool(pred_vis[ti, fi]), bool(gt_vis[ti, fi])
                dist = math.dist(pred_xy[ti, fi], gt_xy[ti, fi])
                if pv and gv and dist <= thr:
                    tp += 1
                elif pv and (not gv or dist > thr):
                    fp += 1
                if gv and (not pv or dist > thr):
                    fn += 1
        values.append(tp / (tp + fp + fn) if (tp + fp + fn) else 1.0)
    return sum(values) / len(values)


def huber_scalar(x, delta):
    ax = abs(x)
    return 0.5 * x * x if ax <= delta else delta * (ax - 0.5 * delta)


def bce_scalar(logit, target):
    # stable log(1+exp(-|x|)) formulation
    return max(logit, 0.0) - logit * target + math.log1p(math.exp(-abs(logit)))


def point_loss_loop(pred_xy, vis_logit, unc_logit, gt_xy, gt_vis,
                    huber_delta, unc_threshold, w_pos=100.0, w_vis=0.1, w_unc=0.1):
    """Scalar-loop tracking loss: Huber on positions (visible gt only),
    BCE on visibility, BCE on uncertainty-vs-large-error."""
    n_tracks, n_frames = gt_vis.shape
    pos_total, pos_count = 0.0, 0
    vis_total = unc_total = 0.0
    for ti in range(n_tracks):
        for fi in range(n_frames):
            err = math.dist(pred_xy[ti, fi], gt_xy[ti, fi])
            if gt_vis[ti, fi]:
                pos_total += huber_scalar(pred_xy[ti, fi, 0] - gt_xy[ti, fi, 0], huber_delta)
                pos_total += huber_scalar(pred_xy[ti, fi, 1] - gt_xy[ti, fi, 1], huber_delta)
                pos_count += 1
            vis_total += bce_scalar(vis_logit[ti, fi], 1.0 if gt_vis[ti, fi] else 0.0)
            unc_total += bce_scalar(unc_logit[ti, fi], 1.0 if err > unc_threshold else 0.0)
    pos = pos_total / max(pos_count, 1)
    return (w_pos * pos
            + w_vis * vis_total / (n_tracks * n_frames)
            + w_unc * unc_total / (n_tracks * n_frames))


def top1_loop(logits, labels):
    hits = 0
    for row, label in zip(logits, labels):
        best, arg = -math.inf, -1
        for j, v in enumerate(row):
            if v > best:
                best, arg = v, j
        hits += int(arg == int(label))
    return hits / len(labels)


def random_rotations(rng, count):
    """Batch of uniform random rotation matrices via quaternions."""
    q = rng.standard_normal((count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((count, 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - z * w)
    m[:, 0, 2] = 2 * (x * z + y * w)
    m[:, 1, 0] = 2 * (x * y + z * w)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - x * w)
    m[:, 2, 0] = 2 * (x * z - y * w)
    m[:, 2, 1] = 2 * (y * z + x * w)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def texture_sample_float64(texture, u, v):
    """Texture color at (u, v), every step in float64."""
    angles = 2 * np.pi * (u[..., None] * texture.freq[0] + v[..., None] * texture.freq[1])
    color = texture.base + texture.amp * np.sin(angles + texture.phase)
    g = texture.noise.shape[0]
    iu = np.clip((u * g).astype(int), 0, g - 1)
    iv = np.clip((v * g).astype(int), 0, g - 1)
    color = color + texture.noise_amp * (texture.noise[iu, iv] - 0.5)
    return np.clip(color, 0.0, 1.0)


def texture_sample_clipped(texture, u, v):
    """`Texture.sample`'s float32 arithmetic with the noise cell clipped to
    [0, g - 1] at both ends."""
    f32 = np.float32
    color = (2 * np.pi * texture.freq[0]).astype(f32)[:, None] * u.astype(f32)
    color += (2 * np.pi * texture.freq[1]).astype(f32)[:, None] * v.astype(f32)
    color += texture.phase.astype(f32)[:, None]
    np.sin(color, out=color)
    color *= texture.amp.astype(f32)[:, None]
    color += texture.base.astype(f32)[:, None]
    g = texture.noise.shape[0]
    cell = np.clip((u * g).astype(int), 0, g - 1) * g + np.clip((v * g).astype(int), 0, g - 1)
    noise = (texture.noise_amp * (texture.noise - 0.5)).astype(f32).reshape(g * g, 3).T
    color += noise.take(cell, axis=1)
    return np.clip(color, 0.0, 1.0, out=color)


def ray_dirs_world(r_w2c, width, height):
    """World-frame ray directions (H, W, 3) of every pixel, scaled to camera z = 1."""
    from stmae.synthworld import intrinsics
    fx, fy, cx, cy = intrinsics(width, height)
    xs = (np.arange(width) + 0.5 - cx) / fx
    ys = (np.arange(height) + 0.5 - cy) / fy
    gx, gy = np.meshgrid(xs, ys)
    dirs_cam = np.stack([gx, gy, np.ones_like(gx)], axis=-1)   # z = 1: t equals depth
    return dirs_cam @ r_w2c                                     # = dirs_cam @ R = R^T dirs


def intersect(rect, origin, dirs):
    """Ray-rectangle hits in world coordinates: returns (t, u, v, valid) arrays.

    u and v project the hit onto each edge, exact for perpendicular edges."""
    from stmae.synthworld import _MIN_T, _RAY_EPS
    normal = np.cross(rect.edge_u, rect.edge_v)
    denom = dirs @ normal
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((rect.origin - origin) @ normal) / denom
    hit = origin + t[..., None] * dirs
    rel = hit - rect.origin
    uu = (rel @ rect.edge_u) / (rect.edge_u @ rect.edge_u)
    vv = (rel @ rect.edge_v) / (rect.edge_v @ rect.edge_v)
    valid = (np.abs(denom) > _RAY_EPS) & (t > _MIN_T) & \
            (uu >= 0) & (uu <= 1) & (vv >= 0) & (vv <= 1)
    return t, uu, vv, valid


def render_frame_reference(spec, frame, width, height):
    """synthworld.render_frame by full-frame ray casting: every rectangle
    intersects every pixel's world ray, one full-frame mask per rectangle
    shades in float64, and each sprite box comes from a full-frame scan of
    its id."""
    from stmae import synthworld as sw
    r, t = sw.camera_extrinsic(spec.camera_yaw[frame], spec.camera_pitch[frame],
                               spec.camera_centers[frame])
    center = spec.camera_centers[frame]
    dirs = ray_dirs_world(r, width, height)
    rects = sw._frame_rects(spec, frame)
    depth = np.full((height, width), np.inf)
    surf = np.full((height, width), -1, dtype=np.int32)
    us = np.zeros((height, width))
    vs = np.zeros((height, width))
    for ri, rect in enumerate(rects):
        t_hit, uu, vv, valid = intersect(rect, center, dirs)
        closer = valid & (t_hit < depth)
        depth[closer] = t_hit[closer]
        surf[closer] = ri
        us[closer] = uu[closer]
        vs[closer] = vv[closer]
    rgb = np.zeros((height, width, 3))
    for ri, rect in enumerate(rects):
        mask = surf == ri
        if mask.any():
            rgb[mask] = texture_sample_float64(rect.texture, us[mask], vs[mask])
    boxes = np.zeros((len(spec.sprites), 4))
    for si in range(len(spec.sprites)):
        ys, xs = np.nonzero(surf == len(spec.statics) + si)
        if len(xs):
            boxes[si] = (xs.min() / width, (xs.max() + 1) / width,
                         ys.min() / height, (ys.max() + 1) / height)
    return rgb, depth, surf, boxes, np.column_stack([r, t])
