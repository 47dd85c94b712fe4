"""Metrics and task losses against closed forms and brute-force oracles."""

import re
import warnings

import numpy as np
import pytest

import oracles
from stmae import mae, metrics, numcore as nc
from stmae.metrics import (DepthPair, absrel, average_jaccard, bce_with_logits,
                           box_track_loss, cross_entropy, cube_points, depth_loss,
                           epe_pose, mean_iou, point_track_loss, pose_loss, top1,
                           write_metric_rows)
from stmae.readout import SE3Pose

N_ORACLE = 100


def random_pose(rng, rot_scale=1.0, t_scale=1.0):
    r = oracles.random_rotations(rng, 1)[0] if rot_scale else np.eye(3)
    return SE3Pose(r=r, t=rng.standard_normal(3) * t_scale)


# ---------------------------------------------------------------------------
# End-point error
# ---------------------------------------------------------------------------

def test_cube_has_eight_fixed_points():
    pts = cube_points()
    assert pts.shape == (8, 3)
    np.testing.assert_array_equal(pts, cube_points())
    assert set(np.unique(pts[:, 2])) == {1.0, 3.0}


def test_epe_zero_for_identical_poses():
    pose = random_pose(np.random.default_rng(0))
    assert epe_pose(pose, pose) == 0.0


def test_epe_pure_translation_offset():
    rng = np.random.default_rng(1)
    r = oracles.random_rotations(rng, 1)[0]
    t = rng.standard_normal(3)
    delta = np.array([0.3, -0.2, 0.6])
    a = SE3Pose(r=r, t=t)
    b = SE3Pose(r=r, t=t + delta)
    np.testing.assert_allclose(epe_pose(b, a), np.linalg.norm(delta), rtol=1e-12)


def test_epe_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(N_ORACLE):
        a, b = random_pose(rng), random_pose(rng)
        expected = oracles.epe_loop(b.r, b.t, a.r, a.t, cube_points())
        assert abs(epe_pose(b, a) - expected) < 1e-9


def test_epe_invariant_under_left_rigid_conjugation():
    rng = np.random.default_rng(3)
    a, b = random_pose(rng), random_pose(rng)
    q = random_pose(rng)

    def compose(outer, inner):
        return SE3Pose(r=outer.r @ inner.r, t=outer.r @ inner.t + outer.t)

    np.testing.assert_allclose(
        epe_pose(compose(q, b), compose(q, a)), epe_pose(b, a), rtol=1e-10)


# ---------------------------------------------------------------------------
# Average Jaccard
# ---------------------------------------------------------------------------

def _random_tracks(rng, tracks=5, frames=8, extent=64):
    gt_xy = rng.random((tracks, frames, 2)) * extent
    pred_xy = gt_xy + rng.standard_normal((tracks, frames, 2)) * rng.uniform(0.5, 8)
    gt_vis = rng.random((tracks, frames)) > 0.3
    logits = rng.standard_normal((tracks, frames)) * 3
    return pred_xy, logits, gt_xy, gt_vis


def test_aj_perfect_prediction():
    rng = np.random.default_rng(4)
    gt_xy = rng.random((4, 6, 2)) * 32
    gt_vis = rng.random((4, 6)) > 0.4
    logits = np.where(gt_vis, 10.0, -10.0)
    assert average_jaccard(gt_xy, logits, gt_xy, gt_vis) == 1.0


def test_aj_all_predicted_occluded():
    rng = np.random.default_rng(5)
    gt_xy = rng.random((3, 5, 2)) * 32
    gt_vis = np.ones((3, 5), dtype=bool)
    assert average_jaccard(gt_xy, np.full((3, 5), -9.0), gt_xy, gt_vis) == 0.0


def test_aj_matches_counting_oracle():
    rng = np.random.default_rng(6)
    for _ in range(N_ORACLE):
        pred_xy, logits, gt_xy, gt_vis = _random_tracks(rng)
        ours = average_jaccard(pred_xy, logits, gt_xy, gt_vis)
        ref = oracles.jaccard_counting(pred_xy, logits > 0, gt_xy, gt_vis)
        assert abs(ours - ref) < 1e-9


def test_aj_monotone_in_position_error():
    rng = np.random.default_rng(7)
    gt_xy = rng.random((4, 6, 2)) * 32
    gt_vis = np.ones((4, 6), dtype=bool)
    logits = np.full((4, 6), 5.0)
    values = []
    for shift in (0.0, 0.5, 1.5, 3.0, 6.0, 12.0, 24.0, 48.0):
        pred = gt_xy.copy()
        pred[0, 0, 0] += shift
        values.append(average_jaccard(pred, logits, gt_xy, gt_vis))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_aj_rejects_empty_tracks():
    with pytest.raises(ValueError):
        average_jaccard(np.zeros((0, 4, 2)), np.zeros((0, 4)),
                        np.zeros((0, 4, 2)), np.zeros((0, 4), dtype=bool))


@pytest.mark.parametrize("case", ["fewer tracks", "one track", "flat logits", "fewer gt frames"])
def test_aj_rejects_a_prediction_of_another_shape(case):
    # broadcasting once scored a (1, 16, 2) prediction against 12 tracks and
    # a (16,) logit vector as visible everywhere
    rng = np.random.default_rng(13)
    pred_xy, logits, gt_xy, gt_vis = _random_tracks(rng, tracks=12, frames=16)
    pred_xy, logits, gt_xy, gt_vis, shapes = {
        "fewer tracks": (pred_xy[:5], logits[:5], gt_xy, gt_vis, ((12, 16, 2), (5, 16, 2))),
        "one track": (pred_xy[:1], logits[:1], gt_xy, gt_vis, ((12, 16, 2), (1, 16, 2))),
        "flat logits": (pred_xy, logits[0], gt_xy, gt_vis, ((16,), (12, 16, 2))),
        "fewer gt frames": (pred_xy, logits, gt_xy, gt_vis[:, :3], ((12, 3), (12, 16))),
    }[case]
    with pytest.raises(ValueError, match=re.escape(str(shapes[0])) + ".*" + re.escape(str(shapes[1]))):
        average_jaccard(pred_xy, logits, gt_xy, gt_vis)


# ---------------------------------------------------------------------------
# AbsRel
# ---------------------------------------------------------------------------

def test_absrel_zero_when_equal():
    d = np.random.default_rng(8).uniform(0.5, 5.0, (4, 4))
    assert absrel(DepthPair.from_depths(d, d)) == 0.0


def test_absrel_double_depth_is_one():
    d = np.random.default_rng(9).uniform(0.5, 5.0, (4, 4))
    np.testing.assert_allclose(absrel(DepthPair.from_depths(2 * d, d)), 1.0, rtol=1e-5)


def test_absrel_mask_excludes_out_of_range_gt():
    gt = np.array([[0.5, 11.0], [0.0005, 2.0]])
    pair = DepthPair.from_depths(np.ones_like(gt), gt)
    np.testing.assert_array_equal(pair.mask, [[True, False], [False, True]])


def test_absrel_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    for _ in range(N_ORACLE):
        gt = rng.uniform(0.0, 12.0, (6, 6))
        pred = rng.uniform(0.1, 9.0, (6, 6))
        pair = DepthPair.from_depths(pred, gt)
        if not pair.mask.any():
            continue
        ref = oracles.absrel_loop(pred, gt, pair.mask, 1e-6)
        assert abs(absrel(pair) - ref) < 1e-9


def test_absrel_empty_mask_errors():
    with pytest.raises(ValueError):
        absrel(DepthPair.from_depths(np.ones((2, 2)), np.full((2, 2), 50.0)))


def test_depth_pair_rejects_maps_of_another_shape():
    # absrel once failed with "boolean index did not match"
    with pytest.raises(ValueError, match=re.escape("(4, 5)") + ".*" + re.escape("(4, 4)")):
        DepthPair.from_depths(np.ones((4, 4)), np.ones((4, 5)))


# ---------------------------------------------------------------------------
# Mean IoU
# ---------------------------------------------------------------------------

def test_iou_identical_boxes():
    boxes = np.tile(np.array([0.1, 0.6, 0.2, 0.9]), (2, 4, 1))
    assert mean_iou(boxes, boxes) == 1.0


def test_iou_closed_form_third():
    a = np.array([0.0, 1.0, 0.0, 1.0])
    b = np.array([0.5, 1.5, 0.0, 1.0])
    pred = np.tile(a, (1, 2, 1))
    gt = np.tile(b, (1, 2, 1))
    np.testing.assert_allclose(mean_iou(pred, gt), 1 / 3, rtol=1e-12)


def test_iou_excludes_first_frame():
    pred = np.zeros((1, 3, 4))
    gt = np.zeros((1, 3, 4))
    pred[0, 0] = [0, 1, 0, 1]
    gt[0, 0] = [5, 6, 5, 6]           # disagreement only at frame 0
    pred[0, 1:] = [0, 1, 0, 1]
    gt[0, 1:] = [0, 1, 0, 1]
    assert mean_iou(pred, gt) == 1.0


def test_iou_nested_boxes_equal_area_ratio():
    outer = np.array([0.0, 1.0, 0.0, 1.0])
    inner = np.array([0.25, 0.75, 0.25, 0.75])
    pred = np.tile(inner, (1, 2, 1))
    gt = np.tile(outer, (1, 2, 1))
    np.testing.assert_allclose(mean_iou(pred, gt), 0.25, rtol=1e-12)


def test_iou_degenerate_gt_excluded_and_counted():
    pred = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (1, 3, 1))
    gt = pred.copy()
    gt[0, 2] = [0.3, 0.3, 0.1, 0.9]   # zero width
    # counted, the zero-width box would pull the mean of frames 1 and 2 to 0.5
    assert mean_iou(pred, gt) == 1.0


@pytest.mark.parametrize("shape", [(0, 4, 4), (2, 1, 4), (2, 0, 4), (3, 4)])
def test_iou_rejects_boxes_with_nothing_to_score(shape):
    boxes = np.zeros(shape)
    with pytest.raises(ValueError, match=re.escape(f"mean_iou: boxes of shape {shape} need")):
        mean_iou(boxes, boxes)


@pytest.mark.parametrize("pred_shape", [(5, 4, 4), (2, 3, 4)])
def test_iou_rejects_a_prediction_of_another_shape(pred_shape):
    # once scored only the first two of five boxes, or failed with IndexError
    boxes = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (2, 4, 1))
    with pytest.raises(ValueError, match=re.escape("(2, 4, 4)") + ".*" + re.escape(str(pred_shape))):
        mean_iou(np.zeros(pred_shape), boxes)


def test_iou_is_zero_when_every_ground_truth_box_has_zero_area():
    # a crop can hide every sprite; the step still scores, in [0, 1]
    pred = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (2, 3, 1))
    assert mean_iou(pred, np.zeros((2, 3, 4))) == 0.0


def test_iou_matches_rasterization_oracle():
    rng = np.random.default_rng(11)
    for _ in range(N_ORACLE):
        def rand_box():
            x = np.sort(rng.uniform(-0.3, 1.3, 2))
            y = np.sort(rng.uniform(-0.3, 1.3, 2))
            return np.array([x[0], x[1] + 0.05, y[0], y[1] + 0.05])

        a, b = rand_box(), rand_box()
        ours = mean_iou(np.tile(a, (1, 2, 1)), np.tile(b, (1, 2, 1)))
        assert abs(ours - oracles.iou_rasterized(a, b)) < 1e-2


def test_iou_bounded():
    rng = np.random.default_rng(12)
    for _ in range(50):
        pred = rng.random((2, 4, 4))
        gt = rng.random((2, 4, 4))
        pred[..., [1, 3]] += pred[..., [0, 2]]
        gt[..., [1, 3]] += gt[..., [0, 2]]
        assert 0.0 <= mean_iou(pred, gt) <= 1.0


# ---------------------------------------------------------------------------
# Point-track loss
# ---------------------------------------------------------------------------

def test_point_loss_near_zero_for_saturated_correct_prediction():
    rng = np.random.default_rng(13)
    gt_xy = rng.random((3, 4, 2)) * 64
    gt_vis = rng.random((3, 4)) > 0.5
    vis_logits = np.where(gt_vis, 50.0, -50.0)
    unc_logits = np.full((3, 4), -50.0)
    loss = point_track_loss(gt_xy, vis_logits, unc_logits, gt_xy, gt_vis)
    assert float(loss.data) < 1e-12


def test_point_loss_quadratic_regime_scaling():
    # one visible point with error e below delta: position term is 100 * e^2 / 2
    gt_xy = np.zeros((1, 1, 2))
    gt_vis = np.ones((1, 1), dtype=bool)
    e = 0.4
    pred = np.array([[[e, 0.0]]])
    logits = np.array([[50.0]])
    unc = np.array([[-50.0]])
    loss = float(point_track_loss(pred, logits, unc, gt_xy, gt_vis).data)
    np.testing.assert_allclose(loss, 100.0 * 0.5 * e * e, rtol=1e-9)


def test_point_loss_matches_scalar_oracle():
    rng = np.random.default_rng(14)
    for _ in range(N_ORACLE):
        pred_xy, _, gt_xy, gt_vis = _random_tracks(rng, tracks=3, frames=4)
        vis_logits = rng.standard_normal((3, 4))
        unc_logits = rng.standard_normal((3, 4))
        ours = float(point_track_loss(pred_xy, vis_logits, unc_logits, gt_xy, gt_vis).data)
        ref = oracles.point_loss_loop(pred_xy, vis_logits, unc_logits, gt_xy, gt_vis,
                                      huber_delta=1.0, unc_threshold=8.0)
        assert abs(ours - ref) < 1e-9


def test_point_loss_position_term_ignores_occluded_gt():
    gt_xy = np.zeros((1, 2, 2))
    gt_vis = np.array([[True, False]])
    pred = np.array([[[0.0, 0.0], [500.0, 500.0]]])
    logits = np.array([[50.0, -50.0]])
    unc = np.array([[-50.0, 50.0]])
    loss = float(point_track_loss(pred, logits, unc, gt_xy, gt_vis).data)
    assert loss < 1e-12


# ---------------------------------------------------------------------------
# Pose loss, top-1, auxiliary losses
# ---------------------------------------------------------------------------

def test_pose_loss_identity_pair():
    v = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0], dtype=np.float64)
    assert float(pose_loss(v, v).data) == 0.0


def test_pose_loss_unit_offset_sum_convention():
    a = np.zeros(12)
    b = np.zeros(12)
    b[4] = 1.0
    assert float(pose_loss(a, b).data) == 1.0


def test_pose_loss_matches_scalar_oracle():
    rng = np.random.default_rng(15)
    for _ in range(N_ORACLE):
        a, b = rng.standard_normal(12), rng.standard_normal(12)
        ref = sum((x - y) ** 2 for x, y in zip(a, b))
        assert abs(float(pose_loss(a, b).data) - ref) < 1e-9


# the squared-error losses, each with its prediction shape
SQUARED_ERROR_LOSSES = {
    "mae": (mae.mae_loss, (4, 16, 16, 3)),
    "pose": (pose_loss, (5, 12)),
    "box": (box_track_loss, (2, 3, 16, 4)),
    "depth": (depth_loss, (2, 4, 16, 16)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(SQUARED_ERROR_LOSSES))
def test_squared_error_losses_are_the_sub_square_chain_bitwise(name, dtype, monkeypatch):
    # targets straddle the valid depth range, so the depth mask drops some pixels
    loss_fn, shape = SQUARED_ERROR_LOSSES[name]
    rng = np.random.default_rng(len(shape) * 100 + shape[-1])
    pred = (rng.standard_normal(shape) * 3 + 5).astype(dtype)
    target = rng.uniform(0.0, 12.0, shape)

    def run():
        p = nc.parameter(pred)
        loss = loss_fn(p, target)
        nc.backward(loss)
        return loss.data, p.grad

    fused = run()
    monkeypatch.setattr(nc, "squared_error", oracles.squared_error_chain)
    chain = run()
    for got, expected in zip(fused, chain):
        assert got.dtype == dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_top1_one_hot_and_inverted():
    logits = np.eye(5) * 10
    labels = np.arange(5)
    assert top1(logits, labels) == 1.0
    assert top1(-logits, labels) == 0.0


def test_top1_tie_breaks_to_lowest_index():
    logits = np.zeros((2, 4))
    assert top1(logits, [0, 1]) == 0.5


def test_top1_matches_counting_oracle():
    rng = np.random.default_rng(16)
    for _ in range(N_ORACLE):
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        assert abs(top1(logits, labels) - oracles.top1_loop(logits, labels)) < 1e-12


def test_bce_matches_scalar_oracle():
    rng = np.random.default_rng(17)
    logits = rng.standard_normal(32) * 5
    targets = (rng.random(32) > 0.5).astype(float)
    ours = bce_with_logits(logits, targets).data
    ref = [oracles.bce_scalar(float(l), float(t)) for l, t in zip(logits, targets)]
    np.testing.assert_allclose(ours, ref, atol=1e-12)


def test_cross_entropy_gradient_and_value():
    rng = np.random.default_rng(18)
    logits = nc.parameter(rng.standard_normal((4, 6)))
    labels = rng.integers(0, 6, 4)
    loss = cross_entropy(logits, labels)
    expected = -np.mean([np.log(np.exp(logits.data[i]) / np.exp(logits.data[i]).sum())[labels[i]]
                         for i in range(4)])
    np.testing.assert_allclose(float(loss.data), expected, rtol=1e-10)
    nc.backward(loss)
    assert logits.grad is not None


def test_depth_loss_respects_mask():
    gt = np.array([[1.0, 50.0]])
    pred_miss = nc.Tensor(np.array([[1.0, 3.0]]))
    assert float(depth_loss(pred_miss, gt).data) == 0.0   # only invalid pixel differs
    pred_hit = nc.Tensor(np.array([[2.0, 50.0]]))
    assert float(depth_loss(pred_hit, gt).data) == 1.0


def test_box_loss_zero_at_target():
    boxes = np.random.default_rng(19).random((2, 4, 4))
    assert float(box_track_loss(boxes, boxes).data) == 0.0


def test_a_target_already_of_the_dtype_is_not_copied():
    target = np.random.default_rng(20).random((2, 4, 4)).astype(np.float32)
    kept = metrics._tensor(target, np.float32)
    assert np.shares_memory(kept.data, target)
    cast = metrics._tensor(target, np.float64)
    assert cast.dtype == np.float64 and not np.shares_memory(cast.data, target)
    np.testing.assert_array_equal(cast.data, target)


def _shape_error(what, target, pred):
    message = f"{what}: target shape {target} does not match prediction shape {pred}"
    return f"^{re.escape(message)}$"


def _label_error(what, got):
    return rf"^{what}: labels must be integers in \[0, 3\), got {got}$"


def _point_args(**wrong):
    """point_track_loss arguments for 2 clips, 3 tracks, 4 frames, with `wrong` swapped in."""
    args = dict(pred_xy=np.zeros((2, 3, 4, 2)), vis_logits=np.zeros((2, 3, 4)),
                unc_logits=np.zeros((2, 3, 4)), gt_xy=np.zeros((2, 3, 4, 2)),
                gt_vis=np.ones((2, 3, 4), bool))
    return tuple({**args, **wrong}.values())


BAD_TARGETS = {
    "top1-short": (top1, (np.zeros((4, 3)), [0]), _shape_error("top1", (1,), (4,))),
    "top1-extra-axis": (top1, (np.zeros((2, 3)), [[0, 1]]), _shape_error("top1", (1, 2), (2,))),
    "top1-float": (top1, (np.zeros((2, 3)), [0.0, 1.0]),
                   _label_error("top1", r"float64 labels \[0.0, 1.0\]")),
    "top1-bool": (top1, (np.zeros((2, 3)), [True, False]),
                  _label_error("top1", r"bool labels \[True, False\]")),
    "ce-short": (cross_entropy, (np.zeros((2, 3)), [0]), _shape_error("cross_entropy", (1,), (2,))),
    "ce-negative": (cross_entropy, (np.zeros((2, 3)), [0, -1]),
                    _label_error("cross_entropy", r"int64 labels \[0, -1\]")),
    "ce-too-large": (cross_entropy, (np.zeros((2, 3)), [0, 3]),
                     _label_error("cross_entropy", r"int64 labels \[0, 3\]")),
    "pose": (pose_loss, (np.zeros((2, 12)), np.zeros(12)), _shape_error("pose_loss", (12,), (2, 12))),
    "box": (box_track_loss, (np.zeros((2, 3, 4, 4)), np.zeros((3, 4, 4))),
            _shape_error("box_track_loss", (3, 4, 4), (2, 3, 4, 4))),
    "depth": (depth_loss, (np.zeros((2, 4, 4)), np.ones((4, 4))),
              _shape_error("depth_loss", (4, 4), (2, 4, 4))),
    "bce": (bce_with_logits, (np.zeros((2, 3)), np.zeros(3)),
            _shape_error("bce_with_logits", (3,), (2, 3))),
    "point-xy": (point_track_loss, _point_args(gt_xy=np.zeros((3, 4, 2))),
                 _shape_error("point_track_loss", (3, 4, 2), (2, 3, 4, 2))),
    "point-vis": (point_track_loss,
                  _point_args(vis_logits=np.zeros((3, 4)), gt_vis=np.ones((3, 4), bool)),
                  _shape_error("point_track_loss visibility", (3, 4), (2, 3, 4))),
    "point-unc": (point_track_loss, _point_args(unc_logits=np.zeros((3, 4))),
                  _shape_error("bce_with_logits", (2, 3, 4), (3, 4))),
}


@pytest.mark.parametrize("case", BAD_TARGETS)
def test_losses_and_top1_reject_targets_of_the_wrong_shape(case):
    loss, args, message = BAD_TARGETS[case]
    with pytest.raises(ValueError, match=message):
        loss(*args)


EMPTY_BATCHES = {
    "top1": (top1, (np.zeros((0, 3)), np.zeros(0, int)), (0,)),
    "cross_entropy": (cross_entropy, (np.zeros((0, 3)), np.zeros(0, int)), (0,)),
    "pose_loss": (pose_loss, (np.zeros((0, 12)), np.zeros((0, 12))), (0, 12)),
    "box_track_loss": (box_track_loss, (np.zeros((0, 3, 4, 4)), np.zeros((0, 3, 4, 4))),
                       (0, 3, 4, 4)),
    "depth_loss": (depth_loss, (np.zeros((0, 4, 4)), np.ones((0, 4, 4))), (0, 4, 4)),
    "bce_with_logits": (bce_with_logits, (np.zeros((2, 0)), np.zeros((2, 0))), (2, 0)),
    "point_track_loss": (point_track_loss, (np.zeros((2, 0, 4, 2)), np.zeros((2, 0, 4)),
                                            np.zeros((2, 0, 4)), np.zeros((2, 0, 4, 2)),
                                            np.ones((2, 0, 4), bool)), (2, 0, 4, 2)),
}


@pytest.mark.parametrize("case", EMPTY_BATCHES)
def test_losses_and_top1_reject_an_empty_prediction(case):
    loss, args, shape = EMPTY_BATCHES[case]
    message = f"{case}: prediction shape {shape} has a zero extent"
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no NaN or empty-mean warning comes first
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            loss(*args)


def test_cross_entropy_and_top1_take_labels_of_any_batch_shape():
    rng = np.random.default_rng(20)
    logits, labels = rng.standard_normal((2, 3, 5)), rng.integers(0, 5, (2, 3))
    np.testing.assert_array_equal(cross_entropy(logits, labels).data,
                                  cross_entropy(logits.reshape(6, 5), labels.reshape(6)).data)
    assert top1(logits, labels) == top1(logits.reshape(6, 5), labels.reshape(6))


def test_metric_csv_roundtrip(tmp_path):
    path = tmp_path / "metrics.csv"
    rows = [dict(task="depth", metric="absrel", value=0.25, seed=3, config_hash="abc")]
    write_metric_rows(path, rows)
    write_metric_rows(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "task,metric,value,seed,config_hash"
    assert len(lines) == 3
