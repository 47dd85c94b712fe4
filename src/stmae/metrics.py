"""Task metrics and task losses for the four 4D tasks plus classification.

Metric functions are pure numpy; loss functions build autodiff graphs so
the same definitions drive both training and evaluation.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import numcore as nc
from .numcore import Tensor

AJ_THRESHOLDS = (1.0, 2.0, 4.0, 8.0, 16.0)
ABSREL_EPS = 1e-6
DEPTH_VALID_RANGE = (0.001, 10.0)
HUBER_DELTA = 1.0          # pixels at 224-resolution coordinates
UNCERTAINTY_THRESHOLD = 8.0  # pixels: target is 1 when the error exceeds this
POINT_LOSS_WEIGHTS = (100.0, 0.1, 0.1)


def cube_points():
    """The 8 evaluation points: a virtual cube (+-1, +-1, z) for z in {1, 3}."""
    corners = [(x, y, z) for z in (1.0, 3.0) for y in (-1.0, 1.0) for x in (-1.0, 1.0)]
    return np.array(corners)


# ---------------------------------------------------------------------------
# Metrics (numpy, pure)
# ---------------------------------------------------------------------------

def epe_pose(pose_hat, pose):
    """Mean distance between cube points moved by the two poses."""
    points = cube_points()
    a = pose.apply(points)
    b = pose_hat.apply(points)
    return float(np.mean(np.linalg.norm(a - b, axis=-1)))


def average_jaccard(pred_xy, pred_vis_logits, gt_xy, gt_vis):
    """Mean Jaccard over pixel thresholds for tracked points with visibility.

    pred_xy/gt_xy: (tracks, frames, 2) pixel coordinates. Prediction counts
    as visible when sigmoid(logit) > 0.5, i.e. logit > 0. Per threshold
    of AJ_THRESHOLDS:
    true positives are predicted-visible points within the threshold of a
    visible ground-truth point; false positives are predicted-visible
    points that are occluded in ground truth or farther than the
    threshold; false negatives are visible ground-truth points that are
    predicted occluded or farther than the threshold.
    """
    pred_xy, gt_xy = np.asarray(pred_xy), np.asarray(gt_xy)
    gt_vis = np.asarray(gt_vis, dtype=bool)
    if pred_xy.size == 0 or pred_xy.shape[0] == 0:
        raise ValueError("average_jaccard: empty track set")
    pred_vis = np.asarray(pred_vis_logits) > 0.0
    dist = np.linalg.norm(pred_xy - gt_xy, axis=-1)
    values = []
    for thr in AJ_THRESHOLDS:
        within = dist <= thr
        tp = np.count_nonzero(pred_vis & gt_vis & within)
        fp = np.count_nonzero(pred_vis & ~(gt_vis & within))
        fn = np.count_nonzero(gt_vis & ~(pred_vis & within))
        denom = tp + fp + fn
        values.append(tp / denom if denom else 1.0)
    return float(np.mean(values))


@dataclass
class DepthPair:
    """Predicted/ground-truth depth maps plus the validity mask."""
    d_pred: np.ndarray
    d_gt: np.ndarray
    mask: np.ndarray

    @classmethod
    def from_depths(cls, d_pred, d_gt):
        """Mask excludes ground truth outside the metric (0.001, 10) range."""
        d_pred, d_gt = np.asarray(d_pred), np.asarray(d_gt)
        lo, hi = DEPTH_VALID_RANGE
        return cls(d_pred=d_pred, d_gt=d_gt, mask=(d_gt > lo) & (d_gt < hi))


def absrel(pair):
    """Mean |d_pred - d_gt| / (d_gt + ABSREL_EPS) over valid pixels."""
    if not np.any(pair.mask):
        raise ValueError("absrel: empty validity mask")
    p = pair.d_pred[pair.mask]
    g = pair.d_gt[pair.mask]
    return float(np.mean(np.abs(p - g) / (g + ABSREL_EPS)))


def _box_area(b):
    return np.maximum(b[..., 1] - b[..., 0], 0.0) * np.maximum(b[..., 3] - b[..., 2], 0.0)


def iou_single(box_a, box_b):
    """Intersection over union of two (xmin, xmax, ymin, ymax) boxes."""
    iw = max(0.0, min(box_a[1], box_b[1]) - max(box_a[0], box_b[0]))
    ih = max(0.0, min(box_a[3], box_b[3]) - max(box_a[2], box_b[2]))
    inter = iw * ih
    union = _box_area(np.asarray(box_a)) + _box_area(np.asarray(box_b)) - inter
    return inter / union if union > 0 else 0.0


def mean_iou(pred_boxes, gt_boxes):
    """IoU averaged over boxes and frames, skipping the given initial frame.

    Zero-area ground-truth boxes are excluded from the average.
    """
    pred_boxes, gt_boxes = np.asarray(pred_boxes), np.asarray(gt_boxes)
    total, count = 0.0, 0
    for bi in range(gt_boxes.shape[0]):
        for fi in range(1, gt_boxes.shape[1]):
            if _box_area(gt_boxes[bi, fi]) <= 0.0:
                continue
            total += iou_single(pred_boxes[bi, fi], gt_boxes[bi, fi])
            count += 1
    return total / count if count else 0.0


def top1(logits, labels):
    """Argmax accuracy; ties break toward the lowest class index."""
    pred = np.argmax(np.asarray(logits), axis=-1)
    return float(np.mean(pred == np.asarray(labels)))


# ---------------------------------------------------------------------------
# Losses (autodiff Tensors)
# ---------------------------------------------------------------------------

def _tensor(x, dtype=None):
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    return Tensor(arr if dtype is None else arr.astype(dtype))


def bce_with_logits(logits, targets):
    """Elementwise binary cross entropy from logits (stable softplus form)."""
    logits = _tensor(logits)
    targets = _tensor(targets, dtype=logits.dtype)
    return nc.softplus(logits) - logits * targets


def point_track_loss(pred_xy, vis_logits, unc_logits, gt_xy, gt_vis):
    """Weighted tracking loss: Huber positions + BCE visibility + BCE uncertainty.

    Coordinates are pixel-space. The Huber term only counts frames where
    ground truth is visible; the uncertainty target is 1 when the position
    error exceeds UNCERTAINTY_THRESHOLD pixels. POINT_LOSS_WEIGHTS weighs
    the three terms.
    """
    pred_xy = _tensor(pred_xy)
    gt_xy_np = np.asarray(gt_xy, dtype=np.float64)
    vis_np = np.asarray(gt_vis, dtype=bool)
    w_pos, w_vis, w_unc = POINT_LOSS_WEIGHTS

    diff = pred_xy - _tensor(gt_xy_np, dtype=pred_xy.dtype)
    per_coord = nc.huber(diff, delta=HUBER_DELTA)
    per_point = nc.sum_(per_coord, axis=-1)              # (tracks, frames)
    vis_mask = vis_np.astype(per_point.dtype)
    visible_count = max(int(vis_np.sum()), 1)
    pos_term = nc.sum_(per_point * Tensor(vis_mask)) * (1.0 / visible_count)

    vis_term = nc.mean(bce_with_logits(vis_logits, vis_np.astype(np.float64)))
    # uncertainty target is an error indicator; no gradient flows through it
    err = np.linalg.norm(np.asarray(pred_xy.data) - gt_xy_np, axis=-1)
    unc_target = (err > UNCERTAINTY_THRESHOLD).astype(np.float64)
    unc_term = nc.mean(bce_with_logits(unc_logits, unc_target))
    return pos_term * w_pos + vis_term * w_vis + unc_term * w_unc


def pose_loss(pred12, gt12):
    """Squared error summed over the 12 raw pose entries (batch-averaged)."""
    pred12 = _tensor(pred12)
    diff = pred12 - _tensor(np.asarray(gt12), dtype=pred12.dtype)
    sq = diff * diff
    if sq.ndim == 1:
        return nc.sum_(sq)
    return nc.mean(nc.sum_(sq, axis=-1))


def box_track_loss(pred_boxes, gt_boxes):
    """L2 loss on raw (xmin, xmax, ymin, ymax) coordinates."""
    pred = _tensor(pred_boxes)
    diff = pred - _tensor(np.asarray(gt_boxes), dtype=pred.dtype)
    return nc.mean(diff * diff)


def depth_loss(pred_depth, gt_depth):
    """Masked L2 on depth values; the mask follows the metric convention."""
    pred = _tensor(pred_depth)
    gt = np.asarray(gt_depth)
    lo, hi = DEPTH_VALID_RANGE
    mask = ((gt > lo) & (gt < hi)).astype(np.float64)
    count = max(int(mask.sum()), 1)
    diff = pred - _tensor(gt, dtype=pred.dtype)
    return nc.sum_(diff * diff * Tensor(mask.astype(diff.dtype))) * (1.0 / count)


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under the logits."""
    logits = _tensor(logits)
    labels = np.asarray(labels).reshape(-1)
    onehot = np.zeros(logits.shape, dtype=logits.dtype)
    onehot[np.arange(len(labels)), labels] = 1.0
    return -nc.mean(nc.sum_(nc.log_softmax(logits) * Tensor(onehot), axis=-1))


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------

METRIC_CSV_FIELDS = ("task", "metric", "value", "seed", "config_hash")


def write_metric_rows(path, rows):
    """Append metric rows (task, metric, value, seed, config-hash) as CSV."""
    exists = os.path.exists(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRIC_CSV_FIELDS)
        if not exists:
            writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in METRIC_CSV_FIELDS})
