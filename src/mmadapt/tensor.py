"""Dense tensors with reverse-mode gradients over the ops defined here.

Ops build a DAG eagerly; `grad` replays it in reverse execution order.
Values are immutable once written (backward never mutates forward data).
`no_grad` flips one process-wide flag, not a per-thread one: while it is
active, no thread in the process records a graph, so build graphs and run
inference from one thread at a time.

At import the module raises glibc's trim and mmap thresholds (`mallopt`).
Each training step frees and re-allocates the same few MB of temporaries.
By default glibc returns them to the OS, and the next step faults every
page in again, at 3.3-4.3 us a page (touching a fresh 64 MiB anonymous
mapping on a 2-vCPU x86-64 VM). With both thresholds set the heap keeps
them, and a step faults in almost nothing. Either one alone turns off
glibc's dynamic mmap threshold: the mmap threshold alone faults more than
the default, the trim threshold alone still hundreds of pages a step.
Where there is no `mallopt` (not glibc) nothing changes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ShapeError
from .rng import Rng

_SEQ = itertools.count()
_GRAD_ENABLED = True
LAYER_NORM_EPS = 1e-5  # added to the variance before its square root

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_mapped() -> None:
    """Keep up to 64 MiB of freed heap mapped, and serve blocks under 32 MiB
    from the heap. `CDLL(None)` is the running process's own libc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_memory_mapped()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference paths) for the whole process
    until the block exits."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "op", "parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.dtype.kind != "f":
            self.data = self.data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.op: str | None = None
        self.parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._seq = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad}, op={self.op})"


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make_node(op: str, data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.op = None
    out.parents = ()
    out._backward = None
    out._seq = 0
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out.op = op
        out.parents = parents
        out._backward = backward
        out._seq = next(_SEQ)
    return out


@functools.lru_cache(maxsize=256)
def _filled(shape: tuple[int, ...], value: float, dtype: np.dtype) -> np.ndarray:
    """A read-only array of `value`, built once per (shape, value, dtype):
    the vector, column or row that turns row and column sums into BLAS
    dots and mat-vecs."""
    out = np.full(shape, value, dtype=dtype)
    out.flags.writeable = False
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Batched matrix product of operands of rank >= 2, with an optional
    transpose of `b`'s last two axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs operands of rank >= 2, got {a.shape} x {b.shape}")
    A, B = a.data, (b.data.swapaxes(-1, -2) if transpose_b else b.data)
    try:
        y = A @ B
    except ValueError as e:
        raise ShapeError(f"matmul: {a.shape} x {b.shape} ({e})") from None

    def backward(g):
        dA = g @ B.swapaxes(-1, -2)
        dB = A.swapaxes(-1, -2) @ g
        db = dB.swapaxes(-1, -2) if transpose_b else dB
        return _unbroadcast(dA, a.shape), _unbroadcast(db, b.shape)

    return _make_node("matmul", y, (a, b), backward)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """x @ w^T for x (..., d_in) and a 2-D weight w (d_out, d_in): one 2-D
    product over x's rows, not one small product per leading index.

    A one-row x (a cached decode step) takes the product as `ndarray.dot`,
    which skips the matmul ufunc's dispatch: 1.8 -> 1.2 us for (1, 64) x
    (64, 192), with equal bits. More rows keep `@`, since `.dot` with a
    transposed weight ran 2-12% slower at 100-600 rows (2-vCPU Xeon, one
    BLAS thread, numpy 2.4).

    The backward computes only the gradients of operands that require one,
    so a frozen weight costs no weight gradient. dx = g @ w keeps g's
    layout (numpy runs a contiguous g as one product); dw = g2^T @ x2 is one
    2-D product over the rows. Both operands must be Tensors.
    """
    X, W = x.data, w.data
    if W.ndim != 2 or X.ndim == 0:
        raise ShapeError(f"linear needs x (..., d_in) and a 2-D weight, got {x.shape} x {w.shape}")
    X2 = X if X.ndim == 2 else X.reshape(-1, X.shape[-1])
    try:
        y = X2.dot(W.T) if len(X2) == 1 else X2 @ W.T
    except ValueError as e:
        raise ShapeError(f"linear: {x.shape} x {w.shape}^T ({e})") from None
    if X.ndim != 2:
        y = y.reshape(X.shape[:-1] + W.shape[:1])

    def backward(g):
        dx = g @ W if x.requires_grad else None
        if not w.requires_grad:
            return dx, None
        g2 = g if g.ndim == 2 else g.reshape(-1, g.shape[-1])
        return dx, g2.T @ X2

    return _make_node("linear", y, (x, w), backward)


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        y = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} + {b.shape} ({e})") from None

    def backward(g):
        # A constant operand (an attention mask, noise) gets no gradient: its
        # reduction to a broadcast shape would cost as much as an op on `g`.
        da = _unbroadcast(g, a.shape) if a.requires_grad else None
        db = _unbroadcast(g, b.shape) if b.requires_grad else None
        return da, db

    return _make_node("add", y, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    y = a.data * c

    def backward(g):
        return (g * c,)

    return _make_node("scale", y, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    y = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make_node("concat", y, tuple(tensors), backward)


def append_rows(buf: np.ndarray, past: Tensor | None, new: Tensor) -> Tensor:
    """`concat([past, new], axis=-2)` without copying `past`: the new rows
    are written into `buf` (..., capacity, w) after the past ones, and the
    result is a view of the rows written so far. `past` is the Tensor this
    op last returned over `buf`, or None for its first rows. A row once
    written is never written again, so every view returned earlier keeps
    its values. The backward splits the gradient as `concat`'s does, and
    the node is recorded as a `concat`.
    """
    start = 0 if past is None else past.shape[-2]
    end = start + new.shape[-2]
    if end > buf.shape[-2] or new.shape[:-2] + new.shape[-1:] != buf.shape[:-2] + buf.shape[-1:]:
        raise ShapeError(f"append_rows: {new.shape} after {start} rows of a {buf.shape} buffer")
    buf[..., start:end, :] = new.data
    y = buf[..., :end, :]
    if past is None:
        return _make_node("concat", y, (new,), lambda g: (g,))

    def backward(g):
        return g[..., :start, :], g[..., start:, :]

    return _make_node("concat", y, (past, new), backward)


def add_low_rank(w: Tensor, blocks, scaling: float) -> Tensor:
    """w + scaling * B @ A added into rows row0 : row0 + len(B) of the 2-D
    weight w, for each (row0, B, A) in `blocks`, as one node: the merged
    weight of low-rank adapters that each own a row block of w (Hu et al.
    2021, arXiv 2106.09685). It rounds as `add(w, concat(...))` of the
    `scale`d `matmul`s would; rows no block covers are w's own.

    The backward computes, per block, gs = g[rows] * scaling, dB = gs @ A^T
    and dA = B^T @ gs, and passes g on to w only if w requires a gradient.
    """
    W, c = w.data, float(scaling)
    deltas = [(b.data @ a.data) * c for _, b, a in blocks]
    y = W.astype(np.result_type(W, *deltas))
    for (row0, _, _), delta in zip(blocks, deltas):
        rows = y[row0 : row0 + len(delta)]
        if rows.shape != delta.shape:
            raise ShapeError(f"add_low_rank: a {delta.shape} block at row {row0} of a {w.shape} weight")
        rows += delta

    def backward(g):
        out = [g if w.requires_grad else None]
        for row0, b, a in blocks:
            gs = g[row0 : row0 + b.shape[0]] * c
            out.append(gs @ a.data.T if b.requires_grad else None)
            out.append(b.data.T @ gs if a.requires_grad else None)
        return tuple(out)

    return _make_node("add-low-rank", y, (w, *(t for _, b, a in blocks for t in (b, a))), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Concatenation along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    y = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _make_node("concat", y, tuple(tensors), backward)


def _addresses_each_element_once(key, shape) -> bool:
    """True for a basic key (ints, slices, None, Ellipsis) and for a tuple of
    integer arrays naming distinct positions of the leading axes."""
    parts = key if isinstance(key, tuple) else (key,)
    if all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)) for k in parts):
        return True
    if not all(isinstance(k, np.ndarray) and k.dtype.kind in "iu" for k in parts):
        return False
    flat = np.sort(np.ravel_multi_index(parts, shape[: len(parts)], mode="wrap"), axis=None)
    return not np.any(flat[1:] == flat[:-1])


def tslice(a: Tensor, key) -> Tensor:
    """a[key]. The backward writes the gradient into zeros, or adds it with
    `np.add.at` (~1 us a row) where `key` may name an element twice."""
    a = _as_tensor(a)
    y = a.data[key]

    def backward(g):
        buf = np.zeros_like(a.data)
        if _addresses_each_element_once(key, a.shape):
            buf[key] = g
        else:
            np.add.at(buf, key, g)
        return (buf,)

    return _make_node("slice", y, (a,), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    y = table.data[ids]

    def backward(g):
        # One GEMM with the one-hot (rows, ids) matrix sums each id's gradient
        # rows, several times faster than `np.add.at` on training batches.
        flat = ids.reshape(-1)
        onehot = np.zeros((table.shape[0], flat.size), dtype=table.data.dtype)
        onehot[flat, np.arange(flat.size)] = 1.0
        return (onehot @ g.reshape(-1, table.shape[-1]),)

    return _make_node("embedding-lookup", y, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    `gain` and `bias` are (n,) vectors. Row means are one BLAS mat-vec over
    all rows against a (n, 1) column of 1/n (exact for the model's
    power-of-two widths): ~4x faster than `np.add.reduce` on rows of 64
    floats. These mat-vecs are `ndarray.dot`, not `@`: the same bits
    without the matmul ufunc's dispatch (3.86 -> 3.26 us at 600 rows,
    2-vCPU Xeon, one BLAS thread, numpy 2.4).

    A (1, n) x, a cached decode step, works on its 1-D view. Its mean and
    variance are dots against a (n,) vector of 1/n, the same BLAS dot that
    numpy runs for a (1, n) row against a (n, 1) column, and its inverse
    std is scalar arithmetic in x's dtype. The bits are the general path's;
    the op takes ~5.6 us instead of ~9.0 at n = 64 (same host)."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    X = x.data
    n = X.shape[-1]
    row = X.shape == (1, n)
    if row:
        x1, c = X[0], _filled((n,), 1.0 / n, X.dtype)
        xhat = x1 - x1.dot(c)
        inv = np.reciprocal(np.sqrt((xhat * xhat).dot(c) + LAYER_NORM_EPS))
    else:
        X2 = X.reshape(-1, n)
        c = _filled((n, 1), 1.0 / n, X.dtype)
        xhat = X2 - X2.dot(c)
        inv = (xhat * xhat).dot(c)
        inv += LAYER_NORM_EPS
        np.sqrt(inv, out=inv)
        np.reciprocal(inv, out=inv)
    xhat *= inv
    y = xhat * gain.data
    y += bias.data

    def backward(g):
        g2 = g.reshape(xhat.shape)
        dxhat = g2 * gain.data
        dx = dxhat - dxhat.dot(c)
        dxhat *= xhat
        dx -= xhat * dxhat.dot(c)
        dx *= inv
        # A frozen gain or bias (the backbone after pretraining) gets none.
        # Over several rows, their sums are mat-vecs against a row of ones.
        if row:
            dgain = g2 * xhat if gain.requires_grad else None
            dbias = g2 if bias.requires_grad else None
        else:
            ones = _filled((1, len(g2)), 1.0, g2.dtype)
            dgain = (ones @ (g2 * xhat)).reshape(gain.shape) if gain.requires_grad else None
            dbias = (ones @ g2).reshape(bias.shape) if bias.requires_grad else None
        return dx.reshape(X.shape), dgain, dbias

    return _make_node("layer-norm", y.reshape(X.shape), (x, gain, bias), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    y = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _make_node("softmax", y, (x,), backward)


def attention(qkv: Tensor, n_heads: int, n_query: int, mask: np.ndarray | None, inv: float, drop: float,
              rng: Rng | None) -> Tensor:
    """softmax(inv * q @ k^T + mask) @ v as one op over every head, with q,
    k and v read from fused rows: qkv (..., S, 3d) holds each row's query,
    key and value side by side, each cut into `n_heads` heads of d/H. Keys
    and values come from all S rows, queries from the last `n_query`.
    Returns the (..., n_query, d) context rows with the heads merged.

    q, k and v are head views, (..., H, rows, d/H), of the rows, not
    copies: one (..., 3H, S, d/H) view holds the query heads, then the key
    heads, then the value heads. The context product writes each head
    straight into its columns of the output. `mask` is a constant additive
    mask that broadcasts against the (..., H, n_query, S) scores. Given an
    `rng`, dropout at rate `drop` hits the probabilities with a keep mask
    drawn from it as `dropout` draws one. The scores are scaled, masked and
    normalized in place in one array; the elementwise steps run on its 2-D
    (rows, S) view. Row sums are mat-vecs against a ones column, one per
    (n_query, S) matrix, so each head's rows sum as they would alone. The
    backward is written out: with dp = g @ v^T,
    ds = inv * p * (dp - rowsum(dp * p)), and it writes dq, dk and dv into
    their head views of one (..., S, 3d) gradient.

    A cached decode step has one query row over 2-D fused rows: it reads q,
    k and v by plain slices of the stacked heads, takes each head's score
    maximum as a plain reduce, and its (H, 1, dh) context, read in order, is
    already the (1, d) row of merged heads. ~12.4 us instead of ~14.1 at
    S = 9 to 33 and d = 64 (2-vCPU Xeon, one BLAS thread, numpy 2.4), with
    the same bits.
    """
    QKV = qkv.data
    if QKV.ndim < 2 or n_heads < 1 or QKV.shape[-1] % (3 * n_heads) or not 1 <= n_query <= QKV.shape[-2]:
        raise ShapeError(f"attention: cannot read {n_query} query rows of {n_heads} heads from fused rows {qkv.shape}")
    if rng is not None and not 0.0 <= drop < 1.0:
        raise ContractViolation(f"dropout rate must be in [0, 1), got {drop}")
    *lead, S, width = QKV.shape
    lead, d, H = tuple(lead), width // 3, n_heads
    step = not lead and n_query == 1  # a cached decode step
    stacked = lead + (S, 3 * H, d // H)
    heads = QKV.reshape(stacked).swapaxes(-2, -3)  # (..., 3H, S, dh): q heads, k heads, v heads
    if step:
        Q, K, V = heads[:H, S - 1 :], heads[H : 2 * H], heads[2 * H :]
    else:
        Q, K, V = heads[..., :H, S - n_query :, :], heads[..., H : 2 * H, :, :], heads[..., 2 * H :, :, :]
    p = Q @ K.swapaxes(-1, -2)
    rows = p.reshape(-1, S)  # a view: elementwise steps run on 2-D rows
    rows *= inv
    if mask is not None:
        try:
            p += mask
        except ValueError as e:
            raise ShapeError(f"attention: mask {np.shape(mask)} against scores {p.shape} ({e})") from None
    # numpy's last-axis max is slow on short rows: 146 us on (16, 4, 27, 27)
    # scores. Over more rows than columns, S elementwise maxima over a
    # transposed copy take 36 us; a one-query decode step keeps the plain one.
    if len(rows) > S:
        rows -= np.maximum.reduce(rows.T.copy(), axis=0)[:, None]
    else:
        rows -= np.maximum.reduce(rows, axis=1, keepdims=True)
    np.exp(rows, out=rows)
    ones = _filled((p.shape[-1], 1), 1.0, p.dtype)
    p /= p @ ones
    pd = p
    if rng is not None:
        keep = (rng.uniform(size=p.shape) >= drop).astype(p.dtype)
        factor = 1.0 / (1.0 - drop)
        pd = p * keep * factor
    if step:
        y = (pd @ V).reshape(1, d)
    else:
        y = np.empty(lead + (n_query, d), dtype=p.dtype)
        np.matmul(pd, V, out=_head_view(y, n_heads))

    def backward(g):
        G = _head_view(g, n_heads)
        dqkv = np.empty(QKV.shape, dtype=g.dtype)
        dheads = dqkv.reshape(stacked).swapaxes(-2, -3)
        if n_query < S:
            dheads[..., :H, : S - n_query, :] = 0.0
        np.matmul(pd.swapaxes(-1, -2), G, out=dheads[..., 2 * H :, :, :])
        ds = G @ V.swapaxes(-1, -2)
        if pd is not p:
            ds *= keep
            ds *= factor
        ds -= (ds * p) @ ones
        ds *= p
        ds *= inv
        np.matmul(ds, K, out=dheads[..., :H, S - n_query :, :])
        np.matmul(Q.swapaxes(-1, -2), ds, out=dheads[..., H : 2 * H, :, :].swapaxes(-1, -2))
        return (dqkv,)

    return _make_node("attention", y, (qkv,), backward)


def _head_view(x: np.ndarray, n_heads: int) -> np.ndarray:
    """The (..., H, L, dh) view of rows x (..., L, H*dh)."""
    return x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)).swapaxes(-2, -3)


_GELU_C = float(np.sqrt(2.0 / np.pi))


@functools.lru_cache(maxsize=8)
def _gelu_scalars(dtype: np.dtype) -> tuple[np.ndarray, ...]:
    """0.044715, C, 0.5, 1 and 3 * 0.044715 as read-only 0-d arrays of
    `dtype`, built once per dtype. numpy casts a Python float operand to the
    array's dtype on every call (~0.35 us of fixed cost); a 0-d array of
    that dtype holds the same cast value, so the bits do not change."""
    out = tuple(np.array(v, dtype=dtype) for v in (0.044715, _GELU_C, 0.5, 1.0, 3 * 0.044715))
    for a in out:
        a.flags.writeable = False
    return out


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU; the gradient matches this exact formula.

    Its constants are 0-d arrays of x's dtype (`_gelu_scalars`): a one-row
    decode step's (1, 128) input costs ~4.3 us instead of ~5.5, nearly all of
    it the fixed cost of nine ufunc calls. The row's 1-D view costs the same
    as the 2-D row (2-vCPU Xeon, numpy 2.4), so every shape takes one path."""
    x = _as_tensor(x)
    xd = x.data
    k, c, half, one, k3 = _gelu_scalars(xd.dtype)
    # C * (x + 0.044715 * x*x*x), then tanh, in place in one array: xd*xd*xd,
    # not xd**3, since numpy's generic float power is ~100x slower.
    t = xd * xd
    t *= xd
    t *= k
    t += xd
    t *= c
    np.tanh(t, out=t)
    y = half * xd
    y *= one + t

    def backward(g):
        du = xd * xd
        du *= k3
        du += one
        du *= c
        dy = t * t
        np.subtract(one, dy, out=dy)
        half_x = half * xd
        half_x *= dy
        half_x *= du
        np.add(one, t, out=dy)
        dy *= half
        dy += half_x
        dy *= g
        return (dy,)

    return _make_node("gelu", y, (x,), backward)


def dropout(x: Tensor, p: float, rng: Rng) -> Tensor:
    """Inverted-scaling dropout with a keep mask drawn from `rng`. Callers
    decide when dropout applies: they call it only in training."""
    x = _as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ContractViolation(f"dropout rate must be in [0, 1), got {p}")
    keep = (rng.uniform(size=x.shape) >= p).astype(x.data.dtype)
    factor = 1.0 / (1.0 - p)
    y = x.data * keep * factor

    def backward(g):
        return (g * keep * factor,)

    return _make_node("dropout", y, (x,), backward)


def masked_cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean next-token NLL over masked positions only.

    logits: (..., L, V); targets: (..., L) ints; mask: (..., L) bools.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    if targets.shape != logits.shape[:-1] or mask.shape != targets.shape:
        raise ShapeError(
            f"masked_cross_entropy: logits {logits.shape}, targets {targets.shape}, mask {mask.shape}"
        )
    n_masked = int(mask.sum())
    if n_masked == 0:
        raise ContractViolation("loss mask selects no positions")
    safe_targets = np.where(mask, targets, 0)
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    total = e.sum(axis=-1, keepdims=True)
    lse = np.log(total[..., 0]) + m[..., 0]
    picked = np.take_along_axis(logits.data, safe_targets[..., None], axis=-1)[..., 0]
    nll = lse - picked
    loss = (nll * mask).sum() / n_masked
    y = np.asarray(loss, dtype=logits.data.dtype)

    def backward(g):
        p = e / total
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, safe_targets[..., None], 1.0, axis=-1)
        d = (p - onehot) * mask[..., None] * (np.asarray(g) / n_masked)
        return (d.astype(logits.data.dtype, copy=False),)

    return _make_node("masked-cross-entropy", y, (logits,), backward)


# ---------------------------------------------------------------------------
# tape + reverse pass
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradTape:
    """Execution-ordered record of the ops reachable from a root tensor."""

    nodes: tuple[Tensor, ...]


def tape_of(root: Tensor) -> GradTape:
    seen: set[int] = set()
    nodes: list[Tensor] = []
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        if t.op is not None:
            nodes.append(t)
            stack.extend(t.parents)
    nodes.sort(key=lambda t: t._seq)
    return GradTape(tuple(nodes))


def grad(loss: Tensor, params) -> dict[Tensor, Tensor]:
    """Reverse-mode gradients of a scalar loss w.r.t. `params`.

    Params not reachable from the loss get zero gradients of matching shape.
    """
    if loss.data.size != 1:
        raise ContractViolation(f"loss must be scalar, got shape {loss.shape}")
    params = list(params)
    tape = tape_of(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node.parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    out: dict[Tensor, Tensor] = {}
    for p in params:
        g = grads.get(id(p))
        if g is None:
            g = np.zeros_like(p.data)
        out[p] = Tensor(g)
    return out

