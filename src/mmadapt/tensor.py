"""Dense tensors with reverse-mode gradients over a fixed op set.

Ops build a DAG eagerly; `grad` replays it in reverse execution order.
Values are immutable once written (backward never mutates forward data).
`no_grad` flips one process-wide flag, not a per-thread one: while it is
active, no thread in the process records a graph, so build graphs and run
inference from one thread at a time.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, ShapeError, UnsupportedOpError
from .rng import Rng

SUPPORTED_OPS = frozenset(
    {
        "matmul",
        "add",
        "scale",
        "elementwise-product",
        "concat",
        "slice",
        "embedding-lookup",
        "layer-norm",
        "softmax",
        "gelu",
        "dropout",
        "mean",
        "masked-cross-entropy",
    }
)

_SEQ = itertools.count()
_GRAD_ENABLED = True


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

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else None)
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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad}, op={self.op})"

    # Small operator surface; everything lowers to the fixed op set.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(_as_tensor(other), -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tslice(self, key)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


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


def matmul(a: Tensor, b: Tensor, transpose_a: bool = False, transpose_b: bool = False) -> Tensor:
    """Batched matrix product with optional transposes on the last two axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (transpose_a and a.ndim < 2) or (transpose_b and b.ndim < 2):
        raise ShapeError("cannot transpose a 1-D operand")
    A = a.data.swapaxes(-1, -2) if transpose_a else a.data
    B = b.data.swapaxes(-1, -2) if transpose_b else b.data
    try:
        y = A @ B
    except ValueError as e:
        raise ShapeError(f"matmul: {a.shape} x {b.shape} ({e})") from None

    def backward(g):
        gm = g
        if a.ndim == 1 and b.ndim == 1:
            raise ShapeError("matmul of two vectors is unsupported")
        A2 = A if A.ndim > 1 else A[None, :]
        B2 = B if B.ndim > 1 else B[:, None]
        if a.ndim == 1:
            gm = gm[..., None, :]
        if b.ndim == 1:
            gm = gm[..., :, None]
        dA = gm @ B2.swapaxes(-1, -2)
        dB = A2.swapaxes(-1, -2) @ gm
        if a.ndim == 1:
            dA = dA[..., 0, :]
        if b.ndim == 1:
            dB = dB[..., :, 0]
        da = dA.swapaxes(-1, -2) if transpose_a else dA
        db = dB.swapaxes(-1, -2) if transpose_b else dB
        return _unbroadcast(da, a.shape), _unbroadcast(db, b.shape)

    return _make_node("matmul", y, (a, b), backward)


def add(a: Tensor, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    y = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make_node("add", y, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    y = a.data * c

    def backward(g):
        return (g * c,)

    return _make_node("scale", y, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    y = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make_node("elementwise-product", y, (a, b), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    y = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make_node("concat", y, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Concatenation along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    y = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return _make_node("concat", y, tuple(tensors), backward)


def _is_basic_key(key) -> bool:
    """Ints, slices, Ellipsis and None only: such a key selects each element
    at most once, so scattering into it needs no accumulation."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)) for k in parts)


def tslice(a: Tensor, key) -> Tensor:
    a = _as_tensor(a)
    y = a.data[key]

    def backward(g):
        buf = np.zeros_like(a.data)
        if _is_basic_key(key):
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
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (buf,)

    return _make_node("embedding-lookup", y, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    # add.reduce / n equals .mean bit for bit without its Python-level wrapper.
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / n
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = xhat * gain.data + bias.data

    def backward(g):
        dxhat = g * gain.data
        dx = (inv / n) * (
            n * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
        dgain = _unbroadcast(g * xhat, gain.shape)
        dbias = _unbroadcast(g, bias.shape)
        return dx, dgain, dbias

    return _make_node("layer-norm", y, (x, gain, bias), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    y = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=axis, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _make_node("softmax", y, (x,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """tanh-approximated GELU; the gradient matches this exact formula."""
    x = _as_tensor(x)
    xd = x.data
    # xd*xd*xd, not xd**3: numpy's generic float power is ~100x slower.
    u = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(u)
    y = 0.5 * xd * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        dy = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du
        return (g * dy,)

    return _make_node("gelu", y, (x,), backward)


def dropout(x: Tensor, p: float, rng: Rng, train: bool) -> Tensor:
    """Inverted-scaling dropout; identity when not training or p == 0."""
    x = _as_tensor(x)
    if not train or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ContractViolation(f"dropout rate must be in [0, 1), got {p}")
    keep = (rng.uniform(size=x.shape) >= p).astype(x.data.dtype)
    factor = 1.0 / (1.0 - p)
    y = x.data * keep * factor

    def backward(g):
        return (g * keep * factor,)

    return _make_node("dropout", y, (x,), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    y = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else np.prod([x.data.shape[a] for a in np.atleast_1d(axis)])

    def backward(g):
        if axis is None:
            return (np.broadcast_to(np.asarray(g) / count, x.shape).astype(x.data.dtype, copy=False),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis=axis)
        return (np.broadcast_to(gg / count, x.shape).astype(x.data.dtype, copy=False),)

    return _make_node("mean", y, (x,), backward)


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
    for n in nodes:
        if n.op not in SUPPORTED_OPS:
            raise UnsupportedOpError(f"op {n.op!r} is not in the supported set")
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


def finite_diff_check(f, params, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f(params) -> scalar Tensor` must be deterministic (dropout off); this is
    verified by evaluating it twice before differencing.
    """
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    params = list(params)
    v1 = f(params).data.copy()
    v2 = f(params).data.copy()
    if not np.array_equal(v1, v2):
        raise ContractViolation("f is not deterministic (is dropout enabled?)")
    analytic = grad(f(params), params)
    worst = 0.0
    for p in params:
        an = analytic[p].data
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = float(f(params).data)
            flat[i] = orig - epsilon
            fm = float(f(params).data)
            flat[i] = orig
            central = (fp - fm) / (2.0 * epsilon)
            err = abs(an.reshape(-1)[i] - central) / (abs(central) + 1e-12)
            worst = max(worst, err)
    return worst
