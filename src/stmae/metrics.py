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

# AJ_THRESHOLDS, HUBER_DELTA and UNCERTAINTY_THRESHOLD are in pixels of the
# clip being scored, whatever its resolution (the probe scores at 64 px,
# TAP-Vid at 256).
AJ_THRESHOLDS = (1.0, 2.0, 4.0, 8.0, 16.0)
ABSREL_EPS = 1e-6
DEPTH_VALID_RANGE = (0.001, 10.0)
HUBER_DELTA = 1.0
UNCERTAINTY_THRESHOLD = 8.0  # target is 1 when the error exceeds this
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
    predicted occluded or farther than the threshold. A ValueError names
    both shapes when the coordinates or the visibilities disagree in shape.
    """
    pred_xy = np.asarray(pred_xy)
    if pred_xy.size == 0 or pred_xy.shape[0] == 0:
        raise ValueError("average_jaccard: empty track set")
    pred_vis = np.asarray(pred_vis_logits) > 0.0
    if pred_vis.shape != pred_xy.shape[:-1]:
        raise ValueError(f"average_jaccard: visibility logits of shape {pred_vis.shape} do not "
                         f"match points of shape {pred_xy.shape}")
    gt_xy = _target("average_jaccard", pred_xy.shape, gt_xy)
    gt_vis = _target("average_jaccard visibility", pred_vis.shape, np.asarray(gt_vis, dtype=bool))
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
        """Mask excludes ground truth outside the metric (0.001, 10) range. A
        ValueError names both shapes unless the maps have one shape."""
        d_pred = np.asarray(d_pred)
        d_gt = _target("DepthPair", d_pred.shape, d_gt)
        return cls(d_pred=d_pred, d_gt=d_gt, mask=_valid_depth(d_gt))


def _valid_depth(d_gt):
    """Ground truth inside the open DEPTH_VALID_RANGE, as a boolean mask."""
    lo, hi = DEPTH_VALID_RANGE
    return (d_gt > lo) & (d_gt < hi)


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

    Boxes are (boxes, frames, 4); a ValueError names a shape with no box or
    no frame after the first, or both shapes when they differ. Zero-area
    ground-truth boxes are excluded from the average, and when every one
    has zero area (a crop can hide every sprite) the score is 0.0.
    """
    pred_boxes, gt_boxes = np.asarray(pred_boxes), np.asarray(gt_boxes)
    if gt_boxes.ndim != 3 or gt_boxes.shape[0] < 1 or gt_boxes.shape[1] < 2:
        raise ValueError(f"mean_iou: boxes of shape {gt_boxes.shape} need at least one box "
                         f"and a frame after the first")
    _target("mean_iou", pred_boxes.shape, gt_boxes)
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
    logits = np.asarray(logits)
    labels = _class_labels("top1", logits.shape, labels)
    return float(np.mean(np.argmax(logits, axis=-1) == labels))


# ---------------------------------------------------------------------------
# Losses (autodiff Tensors)
# ---------------------------------------------------------------------------

def _target(what, shape, target):
    """`target` as an array (a Tensor stays one); raises ValueError naming
    both shapes unless it has the prediction's `shape`: no broadcasting.
    An empty prediction, one with a zero extent, raises a ValueError too."""
    if 0 in tuple(shape):
        raise ValueError(f"{what}: prediction shape {tuple(shape)} has a zero extent")
    target = target if isinstance(target, Tensor) else np.asarray(target)
    if tuple(target.shape) != tuple(shape):
        raise ValueError(f"{what}: target shape {tuple(target.shape)} does not match "
                         f"prediction shape {tuple(shape)}")
    return target


def _class_labels(what, logits_shape, labels):
    """Integer labels of shape logits_shape[:-1], each in [0, classes)."""
    labels = _target(what, logits_shape[:-1], labels)
    classes = logits_shape[-1]
    if not np.issubdtype(labels.dtype, np.integer) or np.any((labels < 0) | (labels >= classes)):
        raise ValueError(f"{what}: labels must be integers in [0, {classes}), got {labels.dtype} "
                         f"labels {labels.ravel()[:8].tolist()}")
    return labels


def _tensor(x, dtype=None):
    """`x` as a Tensor; an array already of `dtype` is wrapped without a copy."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype))


def bce_with_logits(logits, targets):
    """Elementwise binary cross entropy from logits (stable softplus form)."""
    logits = _tensor(logits)
    targets = _tensor(_target("bce_with_logits", logits.shape, targets), dtype=logits.dtype)
    return nc.softplus(logits) - logits * targets


def point_track_loss(pred_xy, vis_logits, unc_logits, gt_xy, gt_vis):
    """Weighted tracking loss: Huber positions + BCE visibility + BCE uncertainty.

    Coordinates are pixel-space. The Huber term only counts frames where
    ground truth is visible; the uncertainty target is 1 when the position
    error exceeds UNCERTAINTY_THRESHOLD pixels. POINT_LOSS_WEIGHTS weighs
    the three terms.
    """
    pred_xy = _tensor(pred_xy)
    gt_xy_np = _target("point_track_loss", pred_xy.shape, np.asarray(gt_xy, dtype=np.float64))
    vis_np = _target("point_track_loss visibility", pred_xy.shape[:-1], np.asarray(gt_vis, dtype=bool))
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
    gt12 = _tensor(_target("pose_loss", pred12.shape, gt12), dtype=pred12.dtype).data
    return nc.mean(nc.sum_(nc.squared_error(pred12, gt12), axis=-1))


def box_track_loss(pred_boxes, gt_boxes):
    """L2 loss on raw (xmin, xmax, ymin, ymax) coordinates."""
    pred = _tensor(pred_boxes)
    gt = _tensor(_target("box_track_loss", pred.shape, gt_boxes), dtype=pred.dtype).data
    return nc.mean(nc.squared_error(pred, gt))


def depth_loss(pred_depth, gt_depth):
    """Masked L2 on depth values; the mask follows the metric convention."""
    pred = _tensor(pred_depth)
    gt = _target("depth_loss", pred.shape, gt_depth)
    mask = _valid_depth(gt)
    count = max(np.count_nonzero(mask), 1)
    squared = nc.squared_error(pred, _tensor(gt, dtype=pred.dtype).data)
    return nc.sum_(squared * Tensor(mask.astype(pred.dtype))) * (1.0 / count)


def cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer labels under the logits."""
    logits = _tensor(logits)
    labels = _class_labels("cross_entropy", logits.shape, labels)
    onehot = (labels[..., None] == np.arange(logits.shape[-1])).astype(logits.dtype)
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
