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
