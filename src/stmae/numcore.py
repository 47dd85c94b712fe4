"""Dense n-d arrays with reverse-mode differentiation on top of numpy.

An op result `Tensor` that takes part in a graph points at a small node
holding its gradient during backward and its (target, vjp) edges; a
target is the node of another op result, or a leaf tensor (a parameter).
The node holds no forward array: each VJP closure holds exactly the arrays
it reads, plus plain shapes and flags, and each op's docstring says what
its backward keeps. So an op result the caller drops is freed at once
unless a VJP reads it. `backward()` walks the nodes once in reverse
topological order. Leaves keep their gradients in `.grad` and accumulate
over calls; op results hold none. The walk consumes the graph: each node
drops its gradient and its VJP closures, with the arrays they hold, as
soon as its targets have their share, so backward memory follows the live
frontier of the walk. A second backward through a consumed graph raises
RuntimeError. A fresh VJP result becomes a target's `.grad` without a copy.

`attention` is the one multi-head attention of the package, used by the
encoder's self-attention and by every readout's cross-attention. It
views its operands as heads itself and has one hand-written VJP; the
three input gradients share one computation of the score gradient. It
runs its heads in groups: all of them in one pass when the whole score
tensor has at most `_GROUP_SCORES` elements (256 KB of float32), one
head at a time otherwise, so a large call never holds its whole score
tensor. Its forward runs a group in blocks of query rows sized for about
`BLOCK` score elements over all heads, through one reused scratch block
of the group's share. One routine builds a group's softmax weights for
the forward, recording each query row's max and sum, and rebuilds them
bit for bit in backward from those statistics, as FlashAttention
recomputes them (Dao et al. 2022). Backward writes all three gradients.
It keeps the row statistics, views of q, k and v, and the output, from
which each row's softmax term D = g · o comes (FlashAttention-2, Dao
2023). It runs group by group, so it holds one group's weights and score
gradient at a time, and writes each group's share of the three
gradients straight into (..., n, d) arrays. `affine` is the one linear
layer (`mae.Layers.linear`): one node and one output array, the bias
added in place into the product.

`layer_norm` is the one norm (`mae.Layers.norm`): normalization, scale
and shift as one node, which keeps the normalized y and each row's
inverse deviation. Its output is not kept. It carries a rebuild that
makes y · scale + bias again with the forward's bits, and `affine` and
`mlp`, the layers that read a norm, keep that rebuild for their weight
gradients instead of the output: recompute instead of store (Chen et al.
2016), so the output is freed after the forward and made again once in
backward.

`mlp` is the one MLP (`mae.Layers.mlp`), affine -> GELU -> affine as one
node, used by every encoder block and readout. Its forward runs in
blocks of rows along axis -2 of about `BLOCK` hidden elements, each over
every leading axis; each block's pre-activation is written into its
activation buffer and goes through GELU in place. Without a gradient
that buffer is one reused scratch block, so the output is the op's only
full-size array. With one, backward writes the four weight gradients,
and x's only when x takes one; its VJP keeps x (a norm's rebuild in its
place), the GELU slope, the activation and w2, and w1 only for x's
gradient. The full pre-activation is never held. Backward writes the
hidden gradient over the spent activation and drops it and the slope
after their last read. The weight
gradients of `affine` and `mlp` over a batched input add one (k, m)
product per leading index into one array instead of summing a stack of
them. Values and all five gradients have the chain's bits. The row
blocks of `attention` and `mlp` are disjoint and at least 8 rows long,
so no product goes to the kernels OpenBLAS keeps for a few rows.

The losses' squared errors are `squared_error`, one node whose output is
its only array: backward keeps the prediction's data and the target,
which the caller holds anyway, not their difference, and rebuilds the
difference into the one array it makes, the prediction's gradient.
`mean` keeps the input's shape and makes one value, g / size, handed on
as a read-only broadcast; `sum_` hands on a broadcast view of g. Backward
copies such a broadcast into a full array for every target but
`squared_error`, which reads its gradient elementwise and takes it as it
is, so a loss `mean(squared_error(...))` makes one array in backward.

Data is row-major float64 or float32; both dtypes run the same code
path, except GELU, whose float32 kernel stays in float32 (within 3e-7
absolute of the exact value) while float64 uses scipy's erf, imported only
when a float64 GELU runs. The fused ops `affine`, `attention`,
`layer_norm` and `mlp` and the elementwise `add`, `sub`, `mul` and
`concat` take operands of one dtype, raise a ValueError naming the op
and each operand's dtype otherwise, and make every output and gradient
in that dtype; a python scalar operand of the operator sugar takes the
tensor's dtype.
Reductions delegate to numpy, whose summation order over the row-major
layout is fixed within one build, so results are bitwise reproducible
for identical inputs.
"""

from __future__ import annotations

import math

import numpy as np

LN_EPS = 1e-6  # layer-normalization epsilon

# Python floats: under NumPy 2 promotion an np.float64 scalar makes float32 arrays float64
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
_HALF_INV_SQRT2 = 0.5 / math.sqrt(2.0)

# Coefficients of P(t) in Numerical Recipes' `erfcc`, constant term first:
# erfc(z) = t·exp(-z² + P(t)), t = 1/(1 + z/2), fractional error < 1.2e-7 for z >= 0
_ERFCC = (-1.26551223, 1.00002368, 0.37409196, 0.09678418, -0.18628806,
          0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277)
_CHUNK = 1 << 15             # elements of a GELU chunk; fits in L2

BLOCK = 1 << 21              # elements per row block of `attention` (scores) and `mlp` (hidden)
_MIN_ROWS = 8                # rows of the shortest row block
_GROUP_SCORES = 1 << 16      # score elements up to which `attention` runs all heads in one pass

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


class _Node:
    """An op result's place in the graph: its gradient while backward runs
    and its (target, vjp) edges, a target being a `_Node` or a leaf Tensor.
    Backward sets both to None once the node has been consumed. A node
    whose VJPs read g elementwise only (`any_layout`) may hold a gradient
    of any layout, a read-only broadcast included."""

    __slots__ = ("grad", "edges", "any_layout")

    def __init__(self, edges, any_layout):
        self.grad = None
        self.edges = edges
        self.any_layout = any_layout


class Tensor:
    """A dense array; an op result that takes part in a graph points at its node.

    A leaf (`_node` None) that requires grad keeps its gradient in `.grad`.
    An op result's `.grad` stays None: its gradient lives on `_node` only
    while backward runs, and the node does not hold `data`. An op result
    that can be made again from arrays its own node keeps carries that
    rebuild in `_rebuild` (see `_make`); others hold None there.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "_rebuild")

    def __init__(self, data):
        self.data = _as_float_array(data)
        self.grad = None
        self.requires_grad = False
        self._node = None
        self._rebuild = None

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

    def __sub__(self, other):
        return sub(self, _wrap_like(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _wrap_like(other, self.dtype))

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return slice_(self, key)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _wrap_like(x, dtype):
    """A python scalar `x` as a Tensor of `dtype`; an array keeps its own
    dtype, which the op then checks against the tensor's."""
    return Tensor(np.asarray(x, dtype=dtype)) if isinstance(x, (int, float)) else _wrap(x)


def parameter(data):
    """A leaf tensor that accumulates gradients, the one way to make one."""
    leaf = Tensor(data)
    leaf.requires_grad = True
    return leaf


def _make(data, parents, any_layout=False, rebuild=None):
    """Build an op result; parents is a list of (tensor, vjp closure).

    The closures must hold arrays and plain values only, never a Tensor,
    so that the graph holds no op result's `data` that no VJP reads. With
    `any_layout` the closures read their g elementwise only, so backward
    may hand them a read-only broadcast.

    `rebuild`, a zero-argument function that holds arrays only and returns
    a fresh array with the bits of `data`, rides on a result that takes
    part in a graph. A VJP that needs the result's values, such as a
    weight gradient, keeps the rebuild (`_reader`) instead of `data`, so
    the result is freed after the forward and made again once in backward.
    """
    out = Tensor(data)
    if _grad_enabled:
        edges = tuple((p if p._node is None else p._node, fn)
                      for p, fn in parents if p.requires_grad)
        if edges:
            out.requires_grad = True
            out._node = _Node(edges, any_layout)
            out._rebuild = rebuild
    return out


def _reader(t):
    """A zero-argument function that returns `t`'s values for a VJP: the
    rebuild `t` carries, or else one that holds `t.data`."""
    if t._rebuild is not None:
        return t._rebuild
    data = t.data
    return lambda: data


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

    `loss` must hold a single scalar and require grad: a ValueError names a
    loss built under `no_grad` or from constants only, which has no graph.
    Leaves (parameters) keep their `.grad` and add to it on every call, a
    scalar leaf given as the loss too. The walk visits the nodes of op
    results, never their Tensors, so it holds only what the VJPs read. It
    consumes the graph: each node gives its gradient to its targets, then
    drops its gradient and its VJP closures (and with them the arrays they
    hold), so memory follows the live frontier of the walk. A later
    backward that reaches a consumed node raises RuntimeError before any
    gradient moves; run a fresh forward instead.

    A VJP returns its incoming gradient `g`, a view of `g`, or an array it
    made and keeps no reference to. A target's first contribution of the
    last kind becomes its `.grad` without a copy when it is writeable and
    row-major, the layout a copy would have (downstream reductions sum in
    memory order, so a kept transposed layout would change their bits).
    So does `g` itself, or a row-major view spanning all of it, for the
    node's last target: every `.grad` is owned by one node or leaf, and no
    later VJP of the node reads `g`. An `any_layout` node (`squared_error`)
    also takes any other contribution that shares no memory with `g` as it
    is, such as `mean`'s read-only broadcast of one value; a later
    contribution is then added out of place. Everything else is copied:
    views of `g` for earlier targets, partial views (`concat` and `slice_`
    keys), read-only broadcasts and other layouts.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: the loss has no graph; it was built under no_grad "
                         "or from constants only")
    if loss._node is None:                  # a leaf: d(loss)/d(loss) is 1
        one = np.ones_like(loss.data)
        loss.grad = one if loss.grad is None else loss.grad + one
        return
    topo = []
    seen = set()
    stack = [(loss._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.edges is None:
            raise RuntimeError("backward: the graph was already consumed by an earlier "
                               "backward; run the forward again to take another gradient")
        seen.add(id(node))
        stack.append((node, True))
        for target, _ in node.edges:
            if type(target) is _Node and id(target) not in seen:
                stack.append((target, False))
    loss._node.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        g, edges = node.grad, node.edges
        node.grad = node.edges = None       # consumed
        last = len(edges) - 1
        for i, (target, vjp) in enumerate(edges):
            contribution = vjp(g)
            if target.grad is not None:
                if target.grad.flags.writeable:
                    target.grad += contribution
                else:                       # a broadcast an any-layout node holds
                    target.grad = target.grad + contribution
            elif contribution.flags.writeable and contribution.flags.c_contiguous and (
                    not np.may_share_memory(contribution, g)
                    or (i == last and _covers(contribution, g))):
                target.grad = contribution
            elif (type(target) is _Node and target.any_layout
                  and not np.may_share_memory(contribution, g)):
                target.grad = contribution
            else:
                target.grad = contribution.copy()


def _covers(view, base):
    """True when the row-major `view` spans exactly the memory of `base`."""
    return (view.nbytes == base.nbytes
            and view.__array_interface__["data"][0] == base.__array_interface__["data"][0])


# ---------------------------------------------------------------------------
# Ops. Each documents its shape rule; mismatches raise ShapeError naming the
# op and both shapes.
# ---------------------------------------------------------------------------


def _one_dtype(op, **operands):
    """The dtype all `operands` (name -> Tensor) of `op` share; a ValueError
    names each operand's dtype when they differ."""
    dtypes = {name: t.dtype for name, t in operands.items()}
    if len(set(dtypes.values())) > 1:
        named = ", ".join(f"{name} {dtype}" for name, dtype in dtypes.items())
        raise ValueError(f"{op}: operands must share one dtype, got {named}")
    return next(iter(dtypes.values()))


def add(a, b):
    """Elementwise a + b with numpy broadcasting, one dtype. Backward keeps
    the two shapes."""
    a, b = _wrap(a), _wrap(b)
    _one_dtype("add", a=a, b=b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape
    return _make(data, [(a, lambda g: _unbroadcast(g, sa)),
                        (b, lambda g: _unbroadcast(g, sb))])


def sub(a, b):
    """Elementwise a - b with numpy broadcasting, one dtype. Backward keeps
    the two shapes."""
    a, b = _wrap(a), _wrap(b)
    _one_dtype("sub", a=a, b=b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")
    sa, sb = a.shape, b.shape
    return _make(data, [(a, lambda g: _unbroadcast(g, sa)),
                        (b, lambda g: _unbroadcast(-g, sb))])


def mul(a, b):
    """Elementwise a * b with numpy broadcasting, one dtype. Backward keeps
    each operand whose partner takes a gradient."""
    a, b = _wrap(a), _wrap(b)
    _one_dtype("mul", a=a, b=b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    ad, bd, sa, sb = a.data, b.data, a.shape, b.shape
    return _make(data, [(a, lambda g: _unbroadcast(g * bd, sa)),
                        (b, lambda g: _unbroadcast(g * ad, sb))])


def squared_error(a, target):
    """Elementwise (a - target)² of a tensor and a constant array of its shape
    and dtype, as one node whose output is its only array.

    Backward keeps `a`'s data and the target, not their difference: it
    rebuilds the difference into one fresh array and scales it there,
    (g·(a - target))·2, the bits of `sub` followed by `mul` of the
    difference by itself (x + x = 2x exactly). Its g may be any layout,
    `mean`'s read-only broadcast included (`_make`'s `any_layout`).
    """
    a = _wrap(a)
    t = np.asarray(target)
    if a.shape != t.shape:
        raise ShapeError(f"squared_error: shapes {a.shape} and {t.shape} differ")
    _one_dtype("squared_error", a=a, target=t)
    x = a.data
    d = x - t
    d *= d

    def vjp(g):
        r = x - t
        r *= g
        r *= 2
        return r

    return _make(d, [(a, vjp)], any_layout=True)


def neg(a):
    """Elementwise -a. Backward keeps nothing."""
    a = _wrap(a)
    return _make(-a.data, [(a, lambda g: -g)])


def _weight_grad(a, g):
    """The weight gradient sum over i of a[i]ᵀ g[i], a (..., n, k) and g
    (..., n, m) sharing their leading shape: one (k, m) product per leading
    index i, added in row-major order into a zeroed (k, m) array.

    Two (k, m) arrays, never the (..., k, m) stack of products. The bits
    are the stack summed over its leading axes, as numpy adds them: from
    zero, one index after another. The exception is k = m = 1 with 8 or
    more leading indices, where numpy sums the stack pairwise. With one row
    per index (n = 1) each term is the outer product, which a broadcast
    multiply writes with the bits of numpy's one-row matmul in about half
    its time.
    """
    at = a.swapaxes(-1, -2)
    if a.ndim == 2:
        return at @ g
    total = np.zeros(at.shape[-2:-1] + g.shape[-1:], np.result_type(a, g))
    product = np.multiply if a.shape[-2] == 1 else np.matmul
    term = None
    for i in np.ndindex(a.shape[:-2]):
        term = product(at[i], g[i], out=term)
        total += term
    return total


def affine(x, w, b):
    """The linear layer x @ w + b: x (..., n, k), w (k, m), b (m,), one dtype.

    The bias goes into the fresh product in place, so the layer makes one
    output array and one graph node; values and gradients have the bits
    of numpy's `x @ w` followed by `+ b`. The w gradient of a batched x is
    `_weight_grad`'s per-index sum, with no (..., k, m) stack. Backward
    keeps w when x takes a gradient, and for w's gradient x, or the
    rebuild of a norm's output in its place (`_reader`), which it calls
    once in its VJP.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: x {x.shape}, w {w.shape} and b {b.shape} "
                         f"need x (..., n, k), w (k, m) and b (m,)")
    _one_dtype("affine", x=x, w=w, b=b)
    data = x.data @ w.data
    data += b.data
    wd, sx, sb = w.data, x.shape, b.shape
    xr = _reader(x)
    return _make(data, [
        (x, lambda g: _unbroadcast(g @ wd.swapaxes(-1, -2), sx)),
        (w, lambda g: _weight_grad(xr(), g)),
        (b, lambda g: _unbroadcast(g, sb)),
    ])


def concat(tensors, axis=0):
    """Concatenate along `axis`; all other extents and the dtypes must match.
    Backward keeps each input's slice key."""
    tensors = [_wrap(t) for t in tensors]
    _one_dtype("concat", **{f"tensor {i}": t for i, t in enumerate(tensors)})
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
    """Basic indexing (ints, slices, Ellipsis and None); gradient scatters
    back. Any other key raises ShapeError: an index array may repeat rows,
    whose gradients this scatter would not add (`gather` does). Backward
    keeps the key, the input's shape and its dtype."""
    a = _wrap(a)
    for part in key if isinstance(key, tuple) else (key,):
        if not (part is None or part is Ellipsis or isinstance(part, slice)
                or isinstance(part, (int, np.integer)) and not isinstance(part, bool)):
            raise ShapeError(f"slice: key {key!r} is not ints, slices, Ellipsis or None; "
                             f"select rows with gather")
    data = a.data[key]
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        full[key] = g
        return full

    return _make(data, [(a, vjp)])


def gather(a, indices):
    """Select rows `indices` (1-d int array) of `a`. Repeats allowed.
    Backward keeps the indices, the input's shape and its dtype."""
    a = _wrap(a)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError(f"gather: indices must be 1-d, got shape {idx.shape}")
    data = np.take(a.data, idx, axis=0)
    shape, dtype = a.shape, a.dtype

    def vjp(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        return full

    return _make(data, [(a, vjp)])


def transpose(a, axes):
    """Permute axes. Backward keeps the inverse permutation."""
    a = _wrap(a)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inverse = np.argsort(axes)
    return _make(a.data.transpose(axes),
                 [(a, lambda g: g.transpose(inverse))])


def reshape(a, shape):
    """Reshape preserving total size. Backward keeps the input's shape."""
    a = _wrap(a)
    try:
        data = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return _make(data, [(a, lambda g: g.reshape(old))])


def layer_norm(a, scale, bias):
    """Normalize the last axis to zero mean and unit variance, then scale and
    shift it: a (..., d), scale (d,) and bias (d,), one dtype, one node.

    The forward writes the normalized y, then y · scale + bias into one
    output array, the two roundings of a `mul` and an `add` after the
    normalization. Backward shares one computation between the three
    inputs: x's gradient is the normalization's VJP of g · scale, scale's
    the sum of g · y over the leading axes and bias's that of g, the bits
    of that three-node chain; x's is computed only when x takes one. It
    keeps y, the per-row inverse deviation, and the data of scale and bias.

    The output is not kept: an output that takes part in a graph carries
    a rebuild (see `_make`) that makes y · scale + bias again with the
    forward's bits, and `affine` and `mlp` keep that rebuild for their
    weight gradients instead of the output itself.
    """
    a, scale, bias = _wrap(a), _wrap(scale), _wrap(bias)
    if a.ndim < 1 or scale.shape != a.shape[-1:] or bias.shape != a.shape[-1:]:
        raise ShapeError(f"layer_norm: x {a.shape}, scale {scale.shape} and bias {bias.shape} "
                         f"need x (..., d), scale (d,) and bias (d,)")
    _one_dtype("layer_norm", x=a, scale=scale, bias=bias)
    mu = a.data.mean(axis=-1, keepdims=True)
    y = a.data - mu
    inv_std = 1.0 / np.sqrt((y * y).mean(axis=-1, keepdims=True) + LN_EPS)
    y *= inv_std
    sd, bd = scale.data, bias.data

    def rebuild():
        out = y * sd
        out += bd
        return out

    need_x = a.requires_grad
    ss, sb = scale.shape, bias.shape

    def grads(g):
        out = {1: _unbroadcast(g * y, ss), 2: _unbroadcast(g, sb)}
        if need_x:
            gy = g * sd
            gm = gy.mean(axis=-1, keepdims=True)
            gym = (gy * y).mean(axis=-1, keepdims=True)
            gy -= gm
            gy -= y * gym
            gy *= inv_std
            out[0] = gy
        return out

    return _make(rebuild(), list(zip((a, scale, bias), _joint_vjps(grads, 3))), rebuild=rebuild)


def _joint_vjps(grads, count):
    """VJPs for `count` inputs that share one computation. Backward calls a
    node's VJPs back to back with one g: the first call computes the
    gradients as `grads(g)`, a dict keyed by input index, and each call
    takes its own; the entry of an input that takes no gradient goes
    unread and is freed with the node."""
    pending = {}

    def vjp(i):
        def fn(g):
            if not pending:
                pending.update(grads(g))
            return pending.pop(i)
        return fn

    return [vjp(i) for i in range(count)]


def _row_blocks(n, row_size):
    """Disjoint slices that cover `n` rows of `row_size` elements in blocks
    of about `BLOCK` elements and at least `_MIN_ROWS` rows; fewer rows
    make one block, and 0 rows one empty block. numpy's OpenBLAS sends
    products of a few rows to other kernels (gemv for one row), whose bits
    differ from a block's, so a shorter last block joins the block before
    it and no row is computed twice."""
    rows = max(_MIN_ROWS, BLOCK // max(1, row_size))
    starts = list(range(0, n, rows)) or [0]
    if len(starts) > 1 and n - starts[-1] < _MIN_ROWS:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def attention(q, k, v, heads):
    """Multi-head scaled dot-product attention, softmax(q kᵀ / sqrt(dh)) v.

    q is (..., nq, d); k and v are (..., nk, d), all of one dtype; leading
    axes broadcast and the output is (..., nq, d). The last axis splits
    into `heads` contiguous slices of dh = d / heads channels, each
    attending on its own; their outputs are merged back in the same order.

    The heads run in groups: every head at once when the whole score
    tensor, lead × heads × nq × nk, has at most `_GROUP_SCORES` elements,
    one head at a time otherwise. numpy's batched matmul makes one gemm per
    head either way, so the grouping leaves every bit as it is; it saves
    the Python overhead of a loop over heads at small shapes. A group
    runs in blocks of query rows sized as if every head shared the block:
    `BLOCK` score elements over every leading axis, every head and all nk
    keys. A group's block goes through one reused scratch array of the
    group's share of that size. Every block sees all the keys, so the
    softmax arithmetic of each row is that of an unblocked softmax; but a
    gemm's bits can depend on its row count, so the row blocks stay sized
    over all heads and forward and backward share one block plan. They
    also share one routine, `weights`, that writes a block's weights
    exp(q kᵀ scale - m) / l: the forward records each query row's max m
    and sum l (taken after exp) in one (..., heads, nq, 2) array, and
    backward reads them back, so its weights have the forward's bits.

    Backward writes all three input gradients, group by group: it
    rebuilds one group's weights over the blocks and writes that group's
    channels of the q, k and v gradients straight into (..., n, d)
    arrays, k's through a transposed view. The softmax Jacobian's row term
    is D = g · o per query row (FlashAttention-2, Dao 2023), equal to the
    sum over the weights and their gradient in exact arithmetic. So
    backward holds one group's weights and score gradient, two
    (..., group, nq, nk) arrays, besides the gradients: one head's at
    large shapes, at most 2 × `_GROUP_SCORES` elements at small ones. It
    keeps the row statistics, views of q, k and v, and the output.
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
    dtype = _one_dtype("attention", q=q, k=k, v=v)
    d = q.shape[-1]
    dh = d // heads
    nq, nk = q.shape[-2], k.shape[-2]

    def split(x):                    # (..., n, d) -> (..., heads, n, dh), a view
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-3, -2)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    kt = kh.swapaxes(-1, -2)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=dtype)
    blocks = _row_blocks(nq, math.prod(lead) * heads * nk)
    group = heads if math.prod(lead) * heads * nq * nk <= _GROUP_SCORES else 1
    groups = [slice(h, h + group) for h in range(0, heads, group)]
    stats = np.empty(lead + (heads, nq, 2), dtype)      # each row's max and sum
    s = np.empty(lead + (group, max(b.stop - b.start for b in blocks), nk), dtype)
    out = np.empty(lead + (nq, d), dtype)
    oh = split(out)

    def weights(hs, block, w, fresh):
        """Write the softmax weights of the heads `hs` and query rows `block`
        into w, recording each row's max and sum in `stats` when `fresh`
        and reading them back otherwise."""
        np.matmul(qh[..., hs, block, :], kt[..., hs, :, :], out=w)
        w *= scale
        if fresh:
            stats[..., hs, block, :1] = w.max(axis=-1, keepdims=True)
        w -= stats[..., hs, block, :1]
        np.exp(w, out=w)
        if fresh:
            stats[..., hs, block, 1:] = w.sum(axis=-1, keepdims=True)
        w /= stats[..., hs, block, 1:]

    for hs in groups:
        for block in blocks:
            w = s[..., :block.stop - block.start, :]
            weights(hs, block, w, True)
            np.matmul(w, vh[..., hs, :, :], out=oh[..., hs, block, :])
    shapes = q.shape, k.shape, v.shape

    def by_group(g):
        """The three gradients at full leading shape, each head group's
        channels written in turn."""
        gh = split(g)
        gq, gk, gv = (np.empty(lead + shape[-2:], dtype) for shape in shapes)
        s = np.empty(lead + (group, nq, nk), dtype)
        gs = np.empty(lead + (group, nq, nk), dtype)
        for hs in groups:
            for block in blocks:
                weights(hs, block, s[..., block, :], False)
            np.matmul(s.swapaxes(-1, -2), gh[..., hs, :, :], out=split(gv)[..., hs, :, :])
            # the softmax Jacobian in place, s * (gs - D) * scale, each row's D = g · o
            np.matmul(gh[..., hs, :, :], vh[..., hs, :, :].swapaxes(-1, -2), out=gs)
            gs -= (gh[..., hs, :, :] * oh[..., hs, :, :]).sum(-1, keepdims=True)
            gs *= s
            gs *= scale
            np.matmul(gs, kh[..., hs, :, :], out=split(gq)[..., hs, :, :])
            np.matmul(qh[..., hs, :, :].swapaxes(-1, -2), gs,
                      out=split(gk)[..., hs, :, :].swapaxes(-1, -2))
        return gq, gk, gv

    def grads(g):
        full = by_group(g)              # one group's weights and score gradient freed
        return {i: _unbroadcast(full[i], shapes[i]) for i in range(3)}

    return _make(out, list(zip((q, k, v), _joint_vjps(grads, 3))))


def log_softmax(a):
    """log(softmax) over the last axis, computed stably. Backward keeps the
    softmax."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    s = np.exp(y)

    def vjp(g):
        return g - s * g.sum(axis=-1, keepdims=True)

    return _make(y, [(a, vjp)])


def _gelu_float32(x, y, slope=None):
    """float32 GELU as max(x, 0) - |x|·Phi(-|x|), one L2-sized chunk at a time,
    written into `y` and, when given, its slope into `slope`: row-major
    arrays of x's size. `y` may be `x` itself: four chunk-sized scratch
    arrays hold every intermediate, so each element of x is read before
    its GELU is written.

    Phi(-|x|) = erfc(|x|/sqrt2)/2 = t·exp(-x²/2 + P(t))/2 with t = 1/(1 + |x|/(2 sqrt2))
    (Numerical Recipes `erfcc`); no select and no cancellation in the
    negative tail, so y <= 0 for every x < 0. The slope is Phi(x) + x·phi(x),
    with Phi(x) = Phi(-|x|) + H(x)·(1 - 2 Phi(-|x|)) (H the unit step) and
    phi(x) = exp(-x²/2)/sqrt(2pi), both from |x| clamped at 64.
    """
    if not all(out.flags.c_contiguous for out in (y, slope) if out is not None):
        raise ValueError("GELU outputs must be row-major; a flat view of them would be a copy")
    flat = np.ascontiguousarray(x).reshape(-1)
    y = y.reshape(-1)
    slope = None if slope is None else slope.reshape(-1)
    a, t, p, q = (np.empty(min(_CHUNK, flat.size), np.float32) for _ in range(4))
    for start in range(0, flat.size, _CHUNK):
        xc = flat[start:start + _CHUNK]
        yc = y[start:start + _CHUNK]
        n = xc.size
        ac, tc, pc, qc = a[:n], t[:n], p[:n], q[:n]
        np.abs(xc, out=ac)
        # Phi(-|x|) and phi(x) are 0 in float32 well before |x| = 64: the same
        # y and slope for finite x, and x = ±inf gives y = max(x, 0) and a
        # slope of H(x) instead of inf·0 = nan
        np.minimum(ac, 64.0, out=ac)
        np.multiply(ac, _HALF_INV_SQRT2, out=tc)
        tc += 1.0
        np.divide(1.0, tc, out=tc)
        np.multiply(tc, _ERFCC[-1], out=pc)
        for c in _ERFCC[-2:0:-1]:
            pc += c
            pc *= tc
        pc += _ERFCC[0]
        np.multiply(ac, -0.5, out=qc)       # exact, so -x²/2 takes one rounding
        qc *= ac
        pc += qc
        np.exp(pc, out=pc)
        pc *= tc
        pc *= 0.5                           # Phi(-|x|)
        if slope is not None:
            sc = slope[start:start + n]
            np.copysign(0.5, xc, out=tc)
            tc += 0.5                       # t is spent; now H(x): 1 for x >= +0, else 0
            np.multiply(pc, -2.0, out=sc)
            sc += 1.0
            sc *= tc
            sc += pc                        # Phi(x)
            np.exp(qc, out=tc)
            tc *= _INV_SQRT2PI
            tc *= ac
            np.copysign(tc, xc, out=tc)     # x·phi(x): |x|·phi(x) signed like x
            sc += tc
        pc *= ac
        np.maximum(xc, 0.0, out=yc)         # the last read of x; y may be x
        yc -= pc


def _gelu_into(x, y, slope=None):
    """Write GELU(x) = x·Phi(x), max(x, 0) at x = ±inf, into `y` and, when
    given, its slope Phi(x) + x·phi(x), 1 at +inf and 0 at -inf, into
    `slope`. `y` may be `x` itself, with the bits of a separate `y`.

    float32 stays float32 in `_gelu_float32`, whose `y` and `slope` must be
    row-major: on [-12, 12] it is within 3e-7 absolute of the exact value,
    within 16 ulp where |y| >= 1e-2 and 64 ulp where |y| >= 1e-6, and never
    positive for negative x. float64 goes through scipy's erf, imported only
    when a float64 GELU runs; it writes the slope before y, the last read
    of x.
    """
    if x.dtype == np.float32:
        _gelu_float32(x, y, slope)
        return
    from scipy.special import erf       # here, so that float32 runs never load scipy
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    # Phi(x) and phi(x) are 0 in float64 well before |x| = 64, so clamping
    # there keeps every finite bit and turns inf·0 = nan into ±0
    if slope is not None:
        xc = np.clip(x, -64.0, 64.0)
        np.add(cdf, xc * (np.exp(-0.5 * xc * xc) * _INV_SQRT2PI), out=slope)
    np.multiply(np.maximum(x, -64.0), cdf, out=y)


def mlp(x, w1, b1, w2, b2):
    """The two-layer perceptron affine(GELU(affine(x, w1, b1)), w2, b2) as one
    node: x (..., n, k), w1 (k, h), b1 (h,), w2 (h, m), b2 (m,), one dtype.

    The forward runs in `_row_blocks` along axis -2, each holding about
    `BLOCK` hidden elements over every leading axis. A block's
    pre-activation is written straight into its activation buffer, gets
    its bias in place and goes through GELU in place. That buffer is the
    block's rows of the full activation z with a gradient to take, and one
    reused scratch block otherwise; the GELU slope, when kept, is written
    block by block into a full array. So without a gradient the output and
    one scratch block are the only arrays of any size, and with one
    nothing is held beyond z and the slope.

    When any input takes a gradient, backward writes the four weight
    gradients, and x's only when x takes one (a constant x, such as a
    readout's query coordinates, skips that product). It keeps x, or the
    rebuild of a norm's output in its place (`_reader`), z, the slope and
    w2, and w1 only for x's gradient. It reads z for the w2 gradient, then
    writes the hidden gradient over it, multiplies that by the slope in
    place and drops both; the w1 and w2 gradients of a batched x are
    `_weight_grad`'s per-index sums. Values and gradients
    have the bits of the three-op chain (an affine, a GELU node and an
    affine), and the one dtype of the operands.
    """
    x, w1, b1, w2, b2 = inputs = [_wrap(t) for t in (x, w1, b1, w2, b2)]
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ShapeError(f"mlp: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape} and "
                         f"b2 {b2.shape} need x (..., n, k), w1 (k, h), b1 (h,), w2 (h, m), b2 (m,)")
    dtype = _one_dtype("mlp", x=x, w1=w1, b1=b1, w2=w2, b2=b2)
    grad = _grad_enabled and any(t.requires_grad for t in inputs)
    need_x = grad and x.requires_grad
    lead, n, hidden = x.shape[:-2], x.shape[-2], w1.shape[1]
    size = math.prod(lead) * hidden
    blocks = _row_blocks(n, size)
    z = np.empty(lead + (n, hidden), dtype) if grad else None
    scratch = None if grad else np.empty(size * max(b.stop - b.start for b in blocks), dtype)
    slope = np.empty(lead + (n, hidden), dtype) if grad else None
    out = np.empty(lead + (n, w2.shape[1]), dtype)
    for block in blocks:
        r = block.stop - block.start
        zb = z[..., block, :] if grad else scratch[:size * r].reshape(lead + (r, hidden))
        np.matmul(x.data[..., block, :], w1.data, out=zb)
        zb += b1.data
        sb = slope[..., block, :] if grad else None
        for i in np.ndindex(lead):      # each leading index's rows are row-major
            _gelu_into(zb[i], zb[i], None if sb is None else sb[i])
        np.matmul(zb, w2.data, out=out[..., block, :])
    out += b2.data
    xr, w2d = _reader(x), w2.data
    w1d = w1.data if need_x else None
    sx, sb1, sb2 = x.shape, b1.shape, b2.shape

    def grads(g):
        nonlocal z, slope
        out = {3: _weight_grad(z, g), 4: _unbroadcast(g, sb2)}
        gh = np.matmul(g, w2d.swapaxes(-1, -2), out=z)     # over the spent activation
        gh *= slope
        z = slope = None                # neither is read again
        if need_x:
            out[0] = _unbroadcast(gh @ w1d.swapaxes(-1, -2), sx)
        out[1] = _weight_grad(xr(), gh)
        out[2] = _unbroadcast(gh, sb1)
        return out

    return _make(out, list(zip(inputs, _joint_vjps(grads, 5))))


def sigmoid(a):
    """Logistic function, numerically stable for both tails. Backward keeps
    the output."""
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
    """log(1 + exp(x)), stable; derivative is sigmoid(x). Backward keeps the
    input."""
    a = _wrap(a)
    x = a.data
    y = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def vjp(g):
        with np.errstate(over="ignore"):    # exp(-x) = inf far below 0, where g / inf = 0
            return g / (1.0 + np.exp(-x))

    return _make(y, [(a, vjp)])


def huber(a, delta):
    """Elementwise Huber penalty of a residual: quadratic below delta.
    Backward keeps the input."""
    a = _wrap(a)
    x = a.data
    ax = np.abs(x)
    y = np.where(ax <= delta, 0.5 * x * x, delta * (ax - 0.5 * delta))

    def vjp(g):
        return g * np.clip(x, -delta, delta)

    return _make(y, [(a, vjp)])


def sum_(a, axis=None):
    """Sum over `axis` (all axes when None). Backward keeps the input's shape."""
    a = _wrap(a)
    shape = a.shape

    def vjp(g):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)

    return _make(np.asarray(a.data.sum(axis=axis)), [(a, vjp)])


def mean(a):
    """Arithmetic mean over every element. Backward keeps the input's shape
    and makes one value, g / size, handed on as a read-only broadcast."""
    a = _wrap(a)
    shape, size = a.shape, a.data.size
    return _make(np.asarray(a.data.mean()),
                 [(a, lambda g: np.broadcast_to(g / size, shape))])


# Registry of differentiable ops; the gradient suite checks every entry.
OPS = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "squared_error": squared_error,
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
    "mlp": mlp,
    "sigmoid": sigmoid,
    "softplus": softplus,
    "huber": huber,
    "sum": sum_,
    "mean": mean,
}
