"""Dense n-d arrays with reverse-mode differentiation on top of numpy.

Every op builds a `Tensor` whose parents carry a closure computing the
local vector-Jacobian product. `backward()` walks the graph once in
reverse topological order. Leaves (parameters) keep their gradients in
`.grad` and accumulate over calls; op results hold none afterwards. The
walk consumes the graph: each op result drops its gradient and its VJP
closures, with the forward arrays they hold, as soon as its parents have
their share, so backward memory follows the live frontier of the walk.
A second backward through a consumed graph raises RuntimeError. A fresh
VJP result becomes a parent's `.grad` without a copy.

`attention` is the one multi-head attention of the package, used by the
encoder's self-attention and by every readout's cross-attention. It
splits and merges heads itself and has one hand-written VJP that keeps
only the softmax weights (plus views of q, k and v) for backward; the
three input gradients share one computation of the score gradient. Its
forward runs in blocks of query rows of about `ATTENTION_BLOCK` score
elements: with a gradient to take, the blocks fill the kept weights
array; without one, a single scratch block is reused, so a frozen
readout never holds its whole score tensor. `affine` is the one linear
layer (`mae.Layers.linear`): one node and one output array, the bias
added in place into the product.

Data is row-major float64 or float32; both dtypes run the same code
path, except `gelu`, whose float32 kernel stays in float32 (within 3e-7
absolute of the exact value) while float64 uses scipy's erf. Reductions
delegate to numpy, whose summation order over the row-major layout is
fixed within one build, so results are bitwise reproducible for
identical inputs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6  # layer-normalization epsilon

# Python floats: under NumPy 2 promotion an np.float64 scalar makes float32 arrays float64
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_HALF_INV_SQRT2 = 0.5 / math.sqrt(2.0)

# Coefficients of P(t) in Numerical Recipes' `erfcc`, constant term first:
# erfc(z) = t·exp(-z² + P(t)), t = 1/(1 + z/2), fractional error < 1.2e-7 for z >= 0
_ERFCC = (-1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
          0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277)
_GELU_CHUNK = 1 << 15        # elements; a chunk's float32 buffers (768 KB) fit in L2

ATTENTION_BLOCK = 1 << 21    # score elements per query block of `attention`

_grad_enabled = True


class ShapeError(ValueError):
    """Operand shapes do not conform to the op's rule."""


class no_grad:
    """Context manager: skip graph construction inside the block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _as_float_array(data):
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A dense array plus the graph edges needed for backpropagation.

    `_parents` holds (parent, vjp closure) pairs; backward sets it to None
    once this op result has been consumed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = _as_float_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; python scalars are wrapped at this tensor's dtype so
    # float32 graphs stay float32
    def __add__(self, other):
        return add(self, _wrap_like(other, self.dtype))

    def __radd__(self, other):
        return add(_wrap_like(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _wrap_like(other, self.dtype))

    def __rsub__(self, other):
        return sub(_wrap_like(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _wrap_like(other, self.dtype))

    def __rmul__(self, other):
        return mul(_wrap_like(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return slice_(self, key)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap_like(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def parameter(data):
    """A leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def _make(data, parents):
    """Build an op result; parents is a list of (tensor, vjp closure)."""
    out = Tensor(data)
    if _grad_enabled:
        tracked = tuple((p, fn) for p, fn in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
    return out


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss):
    """Accumulate d(loss)/d(leaf) into .grad for every leaf reachable from `loss`.

    `loss` must hold a single scalar. Leaves (parameters and any other
    parentless tensor with requires_grad) keep their `.grad` and add to it
    on every call. The walk consumes the graph: each op result gives its
    gradient to its parents, then drops its `.grad` and its VJP closures
    (and with them the forward arrays they hold), so memory follows the
    live frontier of the walk and no op result holds a `.grad` afterwards.
    A later backward that reaches a consumed result raises RuntimeError
    before any gradient moves; run a fresh forward instead.

    A VJP returns its incoming gradient `g`, a view of `g`, or an array it
    made and keeps no reference to. A parent's first contribution of the
    last kind becomes its `.grad` without a copy when it is writeable and
    row-major, the layout a copy would have (downstream reductions sum in
    memory order, so a kept transposed layout would change their bits).
    So does `g` itself, or a row-major view spanning all of it, for the
    node's last parent: every `.grad` is owned by one tensor, and no later
    VJP of the node reads `g`. Everything else is copied: views of `g` for
    earlier parents, partial views (`concat` and `slice_` keys), read-only
    broadcasts and other layouts.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise RuntimeError("backward: the graph was already consumed by an earlier "
                               "backward; run the forward again to take another gradient")
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if not node._parents:
            continue                        # a leaf keeps its gradient
        g, parents = node.grad, node._parents
        node.grad = node._parents = None    # consumed
        last = len(parents) - 1
        for i, (parent, vjp) in enumerate(parents):
            contribution = vjp(g)
            if parent.grad is not None:
                parent.grad += contribution
            elif contribution.flags.writeable and contribution.flags.c_contiguous and (
                    not np.may_share_memory(contribution, g)
                    or (i == last and _covers(contribution, g))):
                parent.grad = contribution
            else:
                parent.grad = contribution.copy()


def _covers(view, base):
    """True when the row-major `view` spans exactly the memory of `base`."""
    return (view.nbytes == base.nbytes
            and view.__array_interface__["data"][0] == base.__array_interface__["data"][0])


# ---------------------------------------------------------------------------
# Ops. Each documents its shape rule; mismatches raise ShapeError naming the
# op and both shapes.
# ---------------------------------------------------------------------------


def add(a, b):
    """Elementwise a + b with numpy broadcasting."""
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(data, [(a, lambda g: _unbroadcast(g, a.shape)),
                        (b, lambda g: _unbroadcast(g, b.shape))])


def sub(a, b):
    """Elementwise a - b with numpy broadcasting."""
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(data, [(a, lambda g: _unbroadcast(g, a.shape)),
                        (b, lambda g: _unbroadcast(-g, b.shape))])


def mul(a, b):
    """Elementwise a * b with numpy broadcasting."""
    a, b = _wrap(a), _wrap(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return _make(data, [(a, lambda g: _unbroadcast(g * b.data, a.shape)),
                        (b, lambda g: _unbroadcast(g * a.data, b.shape))])


def neg(a):
    """Elementwise -a."""
    a = _wrap(a)
    return _make(-a.data, [(a, lambda g: -g)])


def affine(x, w, b):
    """The linear layer x @ w + b: x (..., n, k), w (k, m), b (m,).

    The bias goes into the fresh product in place, so the layer makes one
    output array and one graph node; values and gradients have the bits
    of numpy's `x @ w` followed by `+ b`.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: x {x.shape}, w {w.shape} and b {b.shape} "
                         f"need x (..., n, k), w (k, m) and b (m,)")
    data = x.data @ w.data
    if data.dtype == np.result_type(data, b.data):
        data += b.data
    else:
        data = data + b.data
    return _make(data, [
        (x, lambda g: _unbroadcast(g @ w.data.swapaxes(-1, -2), x.shape)),
        (w, lambda g: _unbroadcast(x.data.swapaxes(-1, -2) @ g, w.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def concat(tensors, axis=0):
    """Concatenate along `axis`; all other extents must match."""
    tensors = [_wrap(t) for t in tensors]
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    parents = []
    start = 0
    for t in tensors:
        width = t.shape[axis]
        key = [slice(None)] * data.ndim
        key[axis] = slice(start, start + width)
        key = tuple(key)
        parents.append((t, lambda g, key=key: g[key]))
        start += width
    return _make(data, parents)


def slice_(a, key):
    """Basic indexing (ints and slices); gradient scatters back."""
    a = _wrap(a)
    data = a.data[key]

    def vjp(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return full

    return _make(data, [(a, vjp)])


def gather(a, indices, axis=0):
    """Select rows `indices` (1-d int array) along `axis`. Repeats allowed."""
    a = _wrap(a)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError(f"gather: indices must be 1-d, got shape {idx.shape}")
    data = np.take(a.data, idx, axis=axis)

    def vjp(g):
        full = np.zeros_like(a.data)
        moved = np.moveaxis(full, axis, 0)
        np.add.at(moved, idx, np.moveaxis(g, axis, 0))
        return full

    return _make(data, [(a, vjp)])


def transpose(a, axes):
    """Permute axes."""
    a = _wrap(a)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = np.argsort(axes)
    return _make(a.data.transpose(axes),
                 [(a, lambda g: g.transpose(inverse))])


def reshape(a, shape):
    """Reshape preserving total size."""
    a = _wrap(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _make(data, [(a, lambda g: g.reshape(a.shape))])


def layer_norm(a):
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    a = _wrap(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    y = centered * inv_std

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gym = (g * y).mean(axis=-1, keepdims=True)
        return inv_std * (g - gm - y * gym)

    return _make(y, [(a, vjp)])


def attention(q, k, v, heads):
    """Multi-head scaled dot-product attention, softmax(q kᵀ / sqrt(dh)) v.

    q is (..., nq, d); k and v are (..., nk, d); leading axes broadcast and
    the output is (..., nq, d). The last axis splits into `heads`
    contiguous slices of dh = d / heads channels, each attending on its
    own; their outputs are merged back in the same order.

    The softmax runs in blocks of query rows, each holding about
    `ATTENTION_BLOCK` score elements over every leading axis, every head and
    all nk keys. When a gradient will be taken the blocks are slices of
    the full weights array that backward keeps; otherwise one scratch
    block is reused, so memory stays bounded by the block whatever nq is.
    Every block sees all the keys, so each row's arithmetic is the same
    as for an unblocked softmax and both modes give the same bits.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    if (q.ndim < 2 or k.ndim < 2 or k.shape != v.shape or q.shape[-1] != k.shape[-1]
            or heads < 1 or q.shape[-1] % heads):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} need equal "
                         f"k and v shapes and a last axis shared and divisible by {heads} heads")
    try:
        lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
    except ValueError:
        raise ShapeError(f"attention: leading axes of q {q.shape} and k {k.shape} do not broadcast")
    d = q.shape[-1]
    dh = d // heads
    nq, nk = q.shape[-2], k.shape[-2]

    def split(x):                    # (..., n, d) -> (..., heads, n, dh), a view
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-3, -2)

    def merge(x):                    # (..., heads, n, dh) -> (..., n, d)
        x = x.swapaxes(-3, -2)
        return x.reshape(x.shape[:-2] + (d,))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    kt = kh.swapaxes(-1, -2)
    dtype = np.result_type(q.data, k.data)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=dtype)
    rows = max(2, ATTENTION_BLOCK // (math.prod(lead) * heads * nk))
    keep = _grad_enabled and (q.requires_grad or k.requires_grad or v.requires_grad)
    # softmax weights: the only array kept for backward, or one reused block
    s = np.empty(lead + (heads, nq if keep else min(rows, nq), nk), dtype)
    out = np.empty(lead + (nq, d), np.result_type(dtype, v.data))
    for start in range(0, nq, rows):
        # numpy sends a one-row product to gemv, whose bits differ from gemm's,
        # so a last block of one row takes the row before it along
        start = max(0, min(start, nq - 2))
        block = slice(start, start + rows)
        w = s[..., block, :] if keep else s[..., :min(rows, nq - start), :]
        np.matmul(qh[..., block, :], kt, out=w)
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, vh, out=split(out)[..., block, :])

    def grads(g):
        gh = split(g)
        out = {}
        if v.requires_grad:
            out[2] = merge(_unbroadcast(s.swapaxes(-1, -2) @ gh, vh.shape))
        # the softmax Jacobian in place: the bits of s * (gs - rowsum(gs * s)) * scale
        gs = gh @ vh.swapaxes(-1, -2)
        gs -= (gs * s).sum(axis=-1, keepdims=True)
        gs *= s
        gs *= scale
        if q.requires_grad:
            out[0] = merge(_unbroadcast(gs @ kh, qh.shape))
        if k.requires_grad:
            out[1] = merge(_unbroadcast(qh.swapaxes(-1, -2) @ gs, kt.shape).swapaxes(-1, -2))
        return out

    # backward calls the three vjps back to back with one g; the first call
    # computes every gradient and each call takes its own
    pending = {}

    def vjp(i):
        def fn(g):
            if not pending:
                pending.update(grads(g))
            return pending.pop(i)
        return fn

    return _make(out, [(q, vjp(0)), (k, vjp(1)), (v, vjp(2))])


def log_softmax(a):
    """log(softmax) over the last axis, computed stably."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    s = np.exp(y)

    def vjp(g):
        return g - s * g.sum(axis=-1, keepdims=True)

    return _make(y, [(a, vjp)])


def _gelu_float32(x, with_cdf):
    """float32 GELU as max(x, 0) - |x|·Phi(-|x|), one L2-sized chunk at a time.

    Phi(-|x|) = erfc(|x|/sqrt2)/2 = t·exp(-x²/2 + P(t))/2 with t = 1/(1 + |x|/(2 sqrt2))
    (Numerical Recipes `erfcc`); no select and no cancellation in the
    negative tail, so y <= 0 for every x < 0. Returns y and, when asked,
    Phi(x) = Phi(-|x|) + H(x)·(1 - 2 Phi(-|x|)) with H the unit step.
    """
    flat = np.ascontiguousarray(x).reshape(-1)
    y = np.empty_like(flat)
    cdf = np.empty_like(flat) if with_cdf else None
    a, t, p = (np.empty(min(_GELU_CHUNK, flat.size), np.float32) for _ in range(3))
    for start in range(0, flat.size, _GELU_CHUNK):
        xc = flat[start:start + _GELU_CHUNK]
        yc = y[start:start + _GELU_CHUNK]
        n = xc.size
        ac, tc, pc = a[:n], t[:n], p[:n]
        np.abs(xc, out=ac)
        # Phi(-|x|) is 0 in float32 well before |x| = 64: the same y for
        # finite x, and x = ±inf gives max(x, 0) instead of inf·0 = nan
        np.minimum(ac, 64.0, out=ac)
        np.multiply(ac, _HALF_INV_SQRT2, out=tc)
        tc += 1.0
        np.divide(1.0, tc, out=tc)
        np.multiply(tc, _ERFCC[-1], out=pc)
        for c in _ERFCC[-2:0:-1]:
            pc += c
            pc *= tc
        pc += _ERFCC[0]
        np.multiply(ac, -0.5, out=yc)       # exact, so -x²/2 takes one rounding
        yc *= ac
        pc += yc
        np.exp(pc, out=pc)
        pc *= tc
        pc *= 0.5                           # Phi(-|x|)
        if with_cdf:
            cc = cdf[start:start + n]
            np.copysign(0.5, xc, out=tc)
            tc += 0.5                       # t is spent; now H(x): 1 for x >= +0, else 0
            np.multiply(pc, -2.0, out=cc)
            cc += 1.0
            cc *= tc
            cc += pc
        pc *= ac
        np.maximum(xc, 0.0, out=yc)
        yc -= pc
    return y.reshape(x.shape), (cdf.reshape(x.shape) if with_cdf else None)


def gelu(a):
    """Exact Gaussian-CDF GELU: x * Phi(x).

    float64 goes through scipy's erf. float32 stays float32 in
    `_gelu_float32`: on [-12, 12] it is within 3e-7 absolute of the exact
    value, within 16 ulp where |y| >= 1e-2 and 64 ulp where |y| >= 1e-6,
    and never positive for negative x. Phi(x) is kept for backward only
    when a gradient will be taken.
    """
    a = _wrap(a)
    x = a.data
    if x.dtype == np.float32:
        y, cdf = _gelu_float32(x, _grad_enabled and a.requires_grad)
    else:
        cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
        y = x * cdf

    def vjp(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        return g * (cdf + x * pdf)

    return _make(y, [(a, vjp)])


def sigmoid(a):
    """Logistic function, numerically stable for both tails."""
    a = _wrap(a)
    x = a.data
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)

    def vjp(g):
        return g * s * (1.0 - s)

    return _make(s, [(a, vjp)])


def softplus(a):
    """log(1 + exp(x)), stable; derivative is sigmoid(x)."""
    a = _wrap(a)
    x = a.data
    y = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def vjp(g):
        return g / (1.0 + np.exp(-x))

    return _make(y, [(a, vjp)])


def huber(a, delta=1.0):
    """Elementwise Huber penalty of a residual: quadratic below delta."""
    a = _wrap(a)
    x = a.data
    ax = np.abs(x)
    y = np.where(ax <= delta, 0.5 * x * x, delta * (ax - 0.5 * delta))

    def vjp(g):
        return g * np.clip(x, -delta, delta)

    return _make(y, [(a, vjp)])


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims=False):
    """Sum over `axis` (all axes when None)."""
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(np.asarray(data),
                 [(a, lambda g: _expand_reduced(g, a.shape, axis, keepdims))])


def mean(a, axis=None, keepdims=False):
    """Arithmetic mean over `axis` (all axes when None)."""
    a = _wrap(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size // max(np.asarray(data).size, 1)

    def vjp(g):
        return _expand_reduced(g, a.shape, axis, keepdims) / count

    return _make(np.asarray(data), [(a, vjp)])


# Registry of differentiable ops; the gradient suite checks every entry.
OPS = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "neg": neg,
    "affine": affine,
    "concat": concat,
    "slice": slice_,
    "gather": gather,
    "transpose": transpose,
    "reshape": reshape,
    "layer_norm": layer_norm,
    "attention": attention,
    "log_softmax": log_softmax,
    "gelu": gelu,
    "sigmoid": sigmoid,
    "softplus": softplus,
    "huber": huber,
    "sum": sum_,
    "mean": mean,
}
