import os
import platform
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from mmadapt.errors import ContractViolation, ShapeError
from mmadapt.rng import Rng
from mmadapt.tensor import (
    Tensor,
    add,
    add_low_rank,
    append_rows,
    attention,
    concat,
    dropout,
    embedding_lookup,
    gelu,
    grad,
    layer_norm,
    linear,
    masked_cross_entropy,
    matmul,
    no_grad,
    parameter,
    scale,
    softmax,
    stack,
    tape_of,
    tslice,
)

from references import (
    attention_by_head_slices,
    attention_by_head_split,
    embedding_backward_by_add_at,
    finite_diff_check,
    layer_norm_by_row_sums,
    linear_by_matmul,
    mean,
    mean_layer_norm,
    mul,
    out_of_place_gelu,
)


def test_grad_sum_of_squares():
    x = parameter([1.0, 2.0])
    loss = scale(mean(mul(x, x)), 2.0)  # sum of squares over 2 elements
    g = grad(loss, [x])[x]
    np.testing.assert_allclose(g.data, [2.0, 4.0])


def test_grad_softmax_ce_two_logits():
    logits = parameter([[0.0, 0.0]])
    loss = masked_cross_entropy(logits, np.array([0]), np.array([True]))
    g = grad(loss, [logits])[logits]
    np.testing.assert_allclose(g.data, [[-0.5, 0.5]], atol=1e-12)


def _pre_ln_block_params(rng, d, d_ffn):
    return {
        "g1": parameter(np.ones(d)),
        "b1": parameter(np.zeros(d)),
        "w_up": parameter(rng.normal(size=(d, d_ffn), scale=0.3)),
        "w_down": parameter(rng.normal(size=(d_ffn, d), scale=0.3)),
    }


def _pre_ln_block(x, p):
    h = layer_norm(x, p["g1"], p["b1"])
    h = matmul(matmul(h, p["w_up"]), p["w_down"])
    return add(x, gelu(h))


def test_grad_two_layer_pre_ln_block_matches_finite_differences():
    rng = Rng(11)
    d, d_ffn = 6, 10
    x0 = rng.normal(size=(3, d))
    p1 = _pre_ln_block_params(rng.split("p1"), d, d_ffn)
    p2 = _pre_ln_block_params(rng.split("p2"), d, d_ffn)
    params = list(p1.values()) + list(p2.values())

    def f(_):
        h = _pre_ln_block(Tensor(x0), p1)
        h = _pre_ln_block(h, p2)
        return mean(mul(h, h))

    err = finite_diff_check(f, params, epsilon=1e-5)
    assert err < 1e-5


def test_finite_diff_linear_layer_is_exact():
    rng = Rng(3)
    w = parameter(rng.normal(size=(4, 5)))
    x = rng.normal(size=(2, 4))

    def f(_):
        return mean(matmul(Tensor(x), w))

    assert finite_diff_check(f, [w], epsilon=1e-5) < 1e-8


def test_finite_diff_rejects_nondeterministic_f():
    stream = Rng(9)
    x = parameter(np.ones(8))

    def f(_):
        return mean(dropout(x, 0.5, stream))

    with pytest.raises(ContractViolation):
        finite_diff_check(f, [x])


@pytest.mark.parametrize(
    "name",
    [
        "matmul",
        "matmul_tb",
        "matmul_batched",
        "linear",
        "add_broadcast",
        "scale",
        "mul",
        "concat",
        "append_rows",
        "add_low_rank",
        "stack",
        "slice",
        "embedding",
        "layer_norm",
        "layer_norm_row",
        "softmax",
        "attention",
        "attention_dropout",
        "attention_cached",
        "attention_one_query",
        "gelu",
        "gelu_row",
        "dropout_fixed_mask",
        "mean_axis",
        "masked_ce",
    ],
)
def test_every_op_gradient_matches_finite_differences(name):
    rng = Rng(zlib.crc32(name.encode()))  # str hashes are salted per process

    if name == "matmul":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(4, 5)))
        f = lambda _: mean(mul(matmul(a, b), matmul(a, b)))
        params = [a, b]
    elif name == "matmul_tb":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(5, 4)))
        f = lambda _: mean(matmul(a, b, transpose_b=True))
        params = [a, b]
    elif name == "matmul_batched":
        a, b = parameter(rng.normal(size=(2, 3, 4))), parameter(rng.normal(size=(4, 5)))
        f = lambda _: mean(mul(matmul(a, b), matmul(a, b)))
        params = [a, b]
    elif name == "linear":
        x, w = parameter(rng.normal(size=(2, 3, 4))), parameter(rng.normal(size=(5, 4)))
        f = lambda _: mean(mul(linear(x, w), linear(x, w)))
        params = [x, w]
    elif name == "add_broadcast":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(4,)))
        f = lambda _: mean(mul(add(a, b), add(a, b)))
        params = [a, b]
    elif name == "scale":
        a = parameter(rng.normal(size=(5,)))
        f = lambda _: mean(scale(mul(a, a), 3.25))
        params = [a]
    elif name == "mul":
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(3, 4)))
        f = lambda _: mean(mul(a, b))
        params = [a, b]
    elif name == "concat":
        a, b = parameter(rng.normal(size=(2, 3))), parameter(rng.normal(size=(4, 3)))
        f = lambda _: mean(mul(concat([a, b], axis=0), concat([a, b], axis=0)))
        params = [a, b]
    elif name == "append_rows":  # 2 rows after 3, and the first view read too
        a, b = parameter(rng.normal(size=(2, 3, 4))), parameter(rng.normal(size=(2, 2, 4)))

        def f(_):
            buf = np.empty((2, 6, 4))
            first = append_rows(buf, None, a)
            both = append_rows(buf, first, b)
            return add(mean(mul(both, both)), mean(first))

        params = [a, b]
    elif name == "add_low_rank":  # two row blocks of w, and rows 2-3 left alone
        w = parameter(rng.normal(size=(6, 3)))
        b1, a1 = parameter(rng.normal(size=(2, 2))), parameter(rng.normal(size=(2, 3)))
        b2, a2 = parameter(rng.normal(size=(2, 1))), parameter(rng.normal(size=(1, 3)))

        def f(_):
            y = add_low_rank(w, [(0, b1, a1), (4, b2, a2)], 1.5)
            return mean(mul(y, y))

        params = [w, b1, a1, b2, a2]
    elif name == "stack":
        a, b = parameter(rng.normal(size=(3,))), parameter(rng.normal(size=(3,)))
        f = lambda _: mean(mul(stack([a, b]), stack([a, b])))
        params = [a, b]
    elif name == "slice":
        a = parameter(rng.normal(size=(4, 6)))
        f = lambda _: mean(mul(tslice(a, (slice(1, 3), slice(None, 4))), tslice(a, (slice(1, 3), slice(None, 4)))))
        params = [a]
    elif name == "embedding":
        table = parameter(rng.normal(size=(7, 3)))
        ids = np.array([[0, 2, 2], [5, 1, 0]])
        f = lambda _: mean(mul(embedding_lookup(table, ids), embedding_lookup(table, ids)))
        params = [table]
    elif name == "layer_norm":
        x = parameter(rng.normal(size=(3, 6), scale=2.0))
        g_, b_ = parameter(rng.normal(size=(6,))), parameter(rng.normal(size=(6,)))
        f = lambda _: mean(mul(layer_norm(x, g_, b_), layer_norm(x, g_, b_)))
        params = [x, g_, b_]
    elif name == "layer_norm_row":  # a decode step's one row
        x = parameter(rng.normal(size=(1, 6), scale=2.0))
        g_, b_ = parameter(rng.normal(size=(6,))), parameter(rng.normal(size=(6,)))
        f = lambda _: mean(mul(layer_norm(x, g_, b_), layer_norm(x, g_, b_)))
        params = [x, g_, b_]
    elif name == "softmax":
        x = parameter(rng.normal(size=(3, 5)))
        f = lambda _: mean(mul(softmax(x), softmax(x)))
        params = [x]
    elif name in ("attention", "attention_dropout"):
        qkv = parameter(rng.normal(size=(2, 4, 18)))  # 2 heads of 3
        mask = np.triu(np.full((4, 4), -1e9), k=1)
        drop = 0.3 if name == "attention_dropout" else 0.0
        w = Tensor(rng.split("w").normal(size=(2, 4, 6)))
        f = lambda _: mean(mul(attention(qkv, 2, 4, mask, 0.7, drop, Rng(5) if drop else None), w))
        params = [qkv]
    elif name == "attention_cached":  # 2 new rows after 3 cached ones
        qkv = parameter(rng.normal(size=(5, 18)))
        mask = np.triu(np.full((2, 5), -1e9), k=4)
        w = Tensor(rng.split("w").normal(size=(2, 6)))
        f = lambda _: mean(mul(attention(qkv, 2, 2, mask, 0.7, 0.0, None), w))
        params = [qkv]
    elif name == "attention_one_query":  # one new row after 4 cached ones
        qkv = parameter(rng.normal(size=(5, 18)))
        w = Tensor(rng.split("w").normal(size=(1, 6)))
        f = lambda _: mean(mul(attention(qkv, 2, 1, None, 0.7, 0.0, None), w))
        params = [qkv]
    elif name == "gelu":
        x = parameter(rng.normal(size=(4, 4)))
        f = lambda _: mean(mul(gelu(x), gelu(x)))
        params = [x]
    elif name == "gelu_row":
        x = parameter(rng.normal(size=(1, 8), scale=2.0))
        f = lambda _: mean(mul(gelu(x), gelu(x)))
        params = [x]
    elif name == "dropout_fixed_mask":
        x = parameter(rng.normal(size=(6, 6)))
        f = lambda _: mean(mul(dropout(x, 0.4, Rng(123)), x))
        params = [x]
    elif name == "mean_axis":
        x = parameter(rng.normal(size=(3, 4)))
        f = lambda _: mean(mul(mean(x, axis=1), mean(x, axis=1)))
        params = [x]
    elif name == "masked_ce":
        x = parameter(rng.normal(size=(4, 6)))
        targets = np.array([1, 3, 0, 5])
        mask = np.array([True, False, True, True])
        f = lambda _: masked_cross_entropy(x, targets, mask)
        params = [x]
    else:  # pragma: no cover
        raise AssertionError(name)

    assert finite_diff_check(f, params, epsilon=1e-5) < 1e-4


FLOAT32_EPS = float(np.finfo(np.float32).eps)


def _within_float32_sum_bound(got, want, abs_sum, n_terms):
    """Two float32 sums of the same `n_terms` products differ by at most
    n_terms * eps * (the sum of the products' magnitudes), whatever the
    order each was summed in."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float32
    assert np.all(np.abs(got - want) <= n_terms * FLOAT32_EPS * abs_sum)


@pytest.mark.parametrize("shape", [(7, 24), (3, 5, 24), (2, 3, 5, 24)])
def test_linear_matches_the_batched_matmul_within_float32_rounding(shape):
    # `linear` sums each product as one 2-D GEMM over the rows, the reference
    # as one GEMM per leading index: equal values up to the order of float32
    # sums, bounded per element as in `_within_float32_sum_bound`.
    rng = Rng(80)
    x = parameter(rng.split("x").normal(size=shape).astype(np.float32))
    w = parameter(rng.split("w").normal(size=(10, shape[-1])).astype(np.float32))
    g = rng.split("g").normal(size=shape[:-1] + (10,)).astype(np.float32)
    got, want = linear(x, w), linear_by_matmul(x, w)
    X, W, G = np.abs(x.data), np.abs(w.data), np.abs(g)
    _within_float32_sum_bound(got.data, want.data, X @ W.T, shape[-1])
    (dx, dw), (ref_dx, ref_dw) = got._backward(g), want._backward(g)
    _within_float32_sum_bound(dx, ref_dx, G @ W, 10)
    rows = int(np.prod(shape[:-1]))
    _within_float32_sum_bound(dw, ref_dw, G.reshape(rows, 10).T @ X.reshape(rows, -1), rows)
    if len(shape) == 2:  # a 2-D x is the same single product: equal bits
        assert np.array_equal(got.data, want.data) and np.array_equal(dw, ref_dw)


def test_linear_backward_skips_a_frozen_operand_and_keeps_the_others_bits():
    rng = Rng(81)
    x_data = rng.split("x").normal(size=(3, 4, 6)).astype(np.float32)
    w_data = rng.split("w").normal(size=(5, 6)).astype(np.float32)
    g = rng.split("g").normal(size=(3, 4, 5)).astype(np.float32)
    dx, dw = linear(parameter(x_data), parameter(w_data))._backward(g)
    frozen_w = linear(parameter(x_data), Tensor(w_data))._backward(g)
    frozen_x = linear(Tensor(x_data), parameter(w_data))._backward(g)
    assert frozen_w[1] is None and frozen_x[0] is None
    assert np.array_equal(frozen_w[0], dx) and np.array_equal(frozen_x[1], dw)
    # Through `grad`, a frozen weight reads zero and the input's gradient is unchanged.
    x, w = parameter(x_data), Tensor(w_data)
    got = grad(mean(mul(linear(x, w), linear(x, w))), [x, w])
    want = grad(mean(mul(linear(x, parameter(w_data)), linear(x, parameter(w_data)))), [x])
    assert np.array_equal(got[x].data, want[x].data) and not np.any(got[w].data)


def test_layer_norm_backward_skips_a_frozen_gain_and_bias():
    rng = Rng(82)
    x = parameter(rng.split("x").normal(size=(3, 4, 8)).astype(np.float32))
    gain = rng.split("gain").normal(size=8).astype(np.float32)
    bias = rng.split("bias").normal(size=8).astype(np.float32)
    g = rng.split("g").normal(size=(3, 4, 8)).astype(np.float32)
    dx, dgain, dbias = layer_norm(x, parameter(gain), parameter(bias))._backward(g)
    assert dgain is not None and dbias is not None
    frozen = layer_norm(x, Tensor(gain), Tensor(bias))._backward(g)
    assert frozen[1] is None and frozen[2] is None and np.array_equal(frozen[0], dx)
    only_gain = layer_norm(x, parameter(gain), Tensor(bias))._backward(g)
    assert np.array_equal(only_gain[1], dgain) and only_gain[2] is None


def test_softmax_rows_are_distributions():
    rng = Rng(5)
    y = softmax(Tensor(rng.normal(size=(20, 9), scale=4.0))).data
    assert (y >= 0).all()
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)


def test_layer_norm_standardizes_before_affine():
    rng = Rng(6)
    d = 64
    x = Tensor(rng.normal(size=(10, d), scale=2.0))
    y = layer_norm(x, Tensor(np.ones(d)), Tensor(np.zeros(d))).data
    assert np.abs(y.mean(axis=-1)).max() < 1e-6
    assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-5


def test_forward_backward_bit_reproducible():
    def run():
        rng = Rng(42)
        w = parameter(rng.normal(size=(5, 5)))
        x = Tensor(rng.normal(size=(3, 5)))
        h = gelu(matmul(x, w))
        loss = masked_cross_entropy(h, np.array([0, 1, 2]), np.array([True, True, False]))
        return loss.data.copy(), grad(loss, [w])[w].data.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


def test_grad_requires_scalar_loss():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        grad(mul(x, x), [x])


def test_grad_unreachable_param_is_zero():
    x = parameter(np.ones(3))
    other = parameter(np.ones((2, 2)))
    g = grad(mean(mul(x, x)), [x, other])
    np.testing.assert_allclose(g[other].data, 0.0)
    assert g[other].shape == (2, 2)


def test_add_backward_skips_a_constant_operand():
    x = parameter(np.ones((2, 3, 4)))
    mask = Tensor(np.zeros((3, 4)))
    g = np.arange(24.0).reshape(2, 3, 4)
    dx, dmask = add(x, mask)._backward(g)
    assert dmask is None
    np.testing.assert_array_equal(dx, g)
    assert add(mask, x)._backward(g)[0] is None
    np.testing.assert_array_equal(add(x, parameter(np.zeros((3, 4))))._backward(g)[1], g.sum(axis=0))


def test_tape_is_execution_ordered():
    x = parameter(np.ones(4))
    y = mean(mul(add(x, x), x))
    tape = tape_of(y)
    seqs = [n._seq for n in tape.nodes]
    assert seqs == sorted(seqs)


def test_no_grad_suppresses_recording():
    x = parameter(np.ones(3))
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad and y.op is None


def test_masked_ce_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((1, 96)))
    loss = masked_cross_entropy(logits, np.array([17]), np.array([True]))
    np.testing.assert_allclose(loss.data, np.log(96.0), rtol=1e-12)


def test_masked_ce_ignores_unmasked_positions():
    rng = Rng(8)
    base = rng.normal(size=(3, 7))
    pert = base.copy()
    pert[1] += rng.normal(size=7)  # unmasked row
    targets = np.array([2, 0, 4])
    mask = np.array([True, False, True])
    l1 = masked_cross_entropy(Tensor(base), targets, mask).data
    l2 = masked_cross_entropy(Tensor(pert), targets, mask).data
    assert l1 == pytest.approx(l2, abs=0)


def test_masked_ce_empty_mask_raises():
    with pytest.raises(ContractViolation):
        masked_cross_entropy(Tensor(np.zeros((2, 4))), np.zeros(2, dtype=int), np.zeros(2, dtype=bool))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    for a, b in (((3,), (3, 2)), ((2, 3), (3,))):
        with pytest.raises(ShapeError, match="rank >= 2"):
            matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))


# --- hot ops: each rewrite is pinned against the formula it replaced ---------


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8))


def test_gelu_matches_float64_tanh_gelu():
    x = np.concatenate([np.linspace(-8.0, 8.0, 1601), Rng(20).normal(size=400, scale=3.0)]).astype(np.float32)
    xd = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (xd + 0.044715 * xd**3))
    want = 0.5 * xd * (1.0 + t)
    dwant = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * xd**2)
    y = gelu(parameter(x))
    assert y.data.dtype == np.float32
    # A few float32 roundings. For large negative x, 1 + tanh and 1 - tanh^2
    # cancel: an error of one float32 ulp of 1, times up to 0.5*|x|*du ~ 31
    # in the derivative, hence the absolute tolerances.
    np.testing.assert_allclose(y.data, want, rtol=2e-6, atol=1e-6)
    np.testing.assert_allclose(y._backward(np.ones_like(x))[0], dwant, rtol=2e-6, atol=5e-6)


@pytest.mark.parametrize(
    "key", [1, slice(1, 3), (slice(None), 2), (Ellipsis, slice(0, 4)), (1, slice(None, None, 2)), (None, slice(1, 4))]
)
def test_tslice_backward_on_basic_keys_equals_add_at(key):
    rng = Rng(21)
    a = parameter(rng.normal(size=(4, 5)).astype(np.float32))
    y = tslice(a, key)
    g = rng.split("g").normal(size=y.shape).astype(np.float32)
    want = np.zeros_like(a.data)
    np.add.at(want, key, g)
    assert _same_bits(y._backward(g)[0], want)


def test_tslice_backward_on_distinct_integer_array_keys_equals_add_at():
    # A tuple of integer arrays naming distinct positions (the target rows of
    # a batch, the valid rows of a projector output) is written, not added.
    rng = Rng(23)
    a = parameter(rng.normal(size=(4, 6, 3)).astype(np.float32))
    for key in (np.nonzero(rng.split("m").uniform(size=(4, 6)) < 0.4), (np.array([3, 0, 2]), np.array([-1, 5, 0]))):
        y = tslice(a, key)
        g = rng.split("g", str(len(key[0]))).normal(size=y.shape).astype(np.float32)
        want = np.zeros_like(a.data)
        np.add.at(want, key, g)
        assert _same_bits(y._backward(g)[0], want)
    # The same position twice, once as a negative index: added, not written.
    twice = tslice(a, (np.array([1, 1]), np.array([5, -1])))
    np.testing.assert_array_equal(twice._backward(np.ones((2, 3), np.float32))[0][1, 5], [2, 2, 2])


def test_tslice_backward_accumulates_repeated_advanced_indices():
    a = parameter(np.zeros((4, 3)))
    rows = tslice(a, np.array([0, 2, 0]))
    np.testing.assert_array_equal(rows._backward(np.ones((3, 3)))[0], [[2, 2, 2], [0, 0, 0], [1, 1, 1], [0, 0, 0]])
    cols = tslice(a, (slice(None), [1, 1]))
    np.testing.assert_array_equal(cols._backward(np.ones((4, 2)))[0], [[0, 2, 0]] * 4)


def _two_exp_cross_entropy(logits, targets, mask, g):
    # The formula masked_cross_entropy replaced: exp(z) taken twice.
    n = int(mask.sum())
    safe = np.where(mask, targets, 0)
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[..., 0]
    picked = np.take_along_axis(logits, safe[..., None], axis=-1)[..., 0]
    y = np.asarray(((lse - picked) * mask).sum() / n, dtype=logits.dtype)
    p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, safe[..., None], 1.0, axis=-1)
    d = (p - onehot) * mask[..., None] * (np.asarray(g) / n)
    return y, d.astype(logits.dtype, copy=False)


def _out_of_place_softmax(x, axis, g):
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, y * (g - (g * y).sum(axis=axis, keepdims=True))


def _within_ulps_of_largest(got, want, ulps):
    """Every element within `ulps` units of roundoff of the reference's
    largest magnitude: the bound for a rewrite that only re-orders float
    sums and keeps each temporary in the same dtype."""
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=ulps * np.finfo(want.dtype).eps * np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rewritten_hot_ops_are_bit_identical_to_their_old_formulas(dtype):
    rng = Rng(22)
    logits = (rng.normal(size=(3, 7, 11)) * 4.0).astype(dtype)
    targets = rng.integers(0, 11, size=(3, 7))
    mask = rng.uniform(size=(3, 7)) < 0.6
    mask[0, 0] = True
    loss = masked_cross_entropy(parameter(logits), targets, mask)
    want_y, want_d = _two_exp_cross_entropy(logits, targets, mask, np.ones((), dtype=dtype))
    assert _same_bits(loss.data, want_y)
    assert _same_bits(loss._backward(np.ones((), dtype=dtype))[0], want_d)

    for axis in (-1, 0):
        g = rng.split("sm", str(axis)).normal(size=logits.shape).astype(dtype)
        y = softmax(parameter(logits), axis=axis)
        want_y, want_d = _out_of_place_softmax(logits, axis, g)
        assert _same_bits(y.data, want_y) and _same_bits(y._backward(g)[0], want_d)

    for width in (5, 16, 64):
        x = (rng.split("ln", str(width)).normal(size=(4, 3, width)) * 3.0 + 1.0).astype(dtype)
        gain = rng.split("gain", str(width)).normal(size=width).astype(dtype)
        bias = rng.split("bias", str(width)).normal(size=width).astype(dtype)
        g = rng.split("lng", str(width)).normal(size=x.shape).astype(dtype)
        y = layer_norm(parameter(x), parameter(gain), parameter(bias))
        want = mean_layer_norm(x, gain, bias, g)
        # Row and column sums are mat-vecs, not `.mean` and `.sum`: the same
        # sums in another order. Measured gaps are below 2 ulps.
        for got, ref in zip((y.data, *y._backward(g)), want):
            _within_ulps_of_largest(got, ref, 8)
        # 2-D rows give the same bits as the 3-D batch.
        flat = layer_norm(parameter(x.reshape(-1, width)), parameter(gain), parameter(bias))
        for got, ref in zip((flat.data, *flat._backward(g.reshape(-1, width))), (y.data, *y._backward(g))):
            assert _same_bits(got, ref.reshape(got.shape))

    x = (rng.split("gelu").normal(size=(5, 7, 9)) * 3.0).astype(dtype)
    g = rng.split("gelu-g").normal(size=x.shape).astype(dtype)
    y = gelu(parameter(x))
    want_y, want_dx = out_of_place_gelu(x, g)
    assert _same_bits(y.data, want_y) and _same_bits(y._backward(g)[0], want_dx)


def _seeded_rows(rng, n, width, dtype):
    """`n` (1, width) rows with magnitudes from 1e-3 to 1e3 and offset means."""
    for i in range(n):
        r = rng.split(str(i))
        scale = 10.0 ** r.uniform(-3.0, 3.0)
        yield r, ((r.normal(size=(1, width)) + r.normal()) * scale).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_row_layer_norm_keeps_the_bits_of_the_row_sums(dtype):
    # A (1, n) row takes its 1-D view and scalar statistics: the same
    # BLAS dots and the same roundings as the (rows, 1) mat-vecs.
    for r, x in _seeded_rows(Rng(24), 200, 64, dtype):
        gain, bias, g = (r.split(n).normal(size=s).astype(dtype) for n, s in (("gain", 64), ("bias", 64), ("g", (1, 64))))
        got = layer_norm(parameter(x), parameter(gain), parameter(bias))
        want = layer_norm_by_row_sums(parameter(x), parameter(gain), parameter(bias))
        assert _same_bits(got.data, want.data)
        for a, b in zip(got._backward(g), want._backward(g)):
            assert _same_bits(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_row_gelu_keeps_the_bits_of_the_out_of_place_formula(dtype):
    for r, x in _seeded_rows(Rng(25), 200, 128, dtype):
        g = r.split("g").normal(size=x.shape).astype(dtype)
        y = gelu(parameter(x))
        want_y, want_dx = out_of_place_gelu(x, g)
        assert _same_bits(y.data, want_y) and _same_bits(y._backward(g)[0], want_dx)


@pytest.mark.parametrize("S", [1, 2, 9, 33, 255])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_query_attention_keeps_the_bits_of_the_head_split(S, dtype):
    # A one-query step reads q, k and v by plain slices of the stacked
    # heads, takes a plain maximum and merges its heads by a reshape: the
    # same bits as the 5-D head split with its transposed maximum, for one
    # query and for all S.
    rng = Rng(26).split(str(S))
    for i in range(200):
        r = rng.split(str(i))
        qkv = (r.normal(size=(S, 192)) * 10.0 ** r.uniform(-3.0, 3.0)).astype(dtype)
        for n_query in {1, S}:
            g = r.split("g", str(n_query)).normal(size=(n_query, 64)).astype(dtype)
            got = attention(parameter(qkv), 4, n_query, None, 0.25, 0.0, None)
            want = attention_by_head_split(parameter(qkv), 4, n_query, 0.25)
            assert _same_bits(got.data, want.data)
            assert _same_bits(got._backward(g)[0], want._backward(g)[0])


@pytest.mark.parametrize("lead", [(2,), (2, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_attention_keeps_the_bits_of_the_head_split(lead, dtype):
    # Fused rows with leading axes read their heads from the same stacked
    # (..., 3H, S, dh) view.
    rng = Rng(27).split(str(lead))
    for S in (1, 9, 33):
        for i in range(20):
            r = rng.split(str(S), str(i))
            qkv = (r.normal(size=lead + (S, 192)) * 10.0 ** r.uniform(-3.0, 3.0)).astype(dtype)
            for n_query in {1, S}:
                g = r.split("g", str(n_query)).normal(size=lead + (n_query, 64)).astype(dtype)
                got = attention(parameter(qkv), 4, n_query, None, 0.25, 0.0, None)
                want = attention_by_head_split(parameter(qkv), 4, n_query, 0.25)
                assert _same_bits(got.data, want.data)
                assert _same_bits(got._backward(g)[0], want._backward(g)[0])


@pytest.mark.parametrize("rows", [1, 13, 100, 307, 600])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dot_mat_vecs_keep_the_bits_of_the_matmul_ufunc(rows, dtype):
    # `layer_norm`'s row sums and a one-row `linear` are `ndarray.dot`
    # products: the same BLAS sums as `@`, without its ufunc dispatch.
    rng = Rng(23).split(str(rows))
    x = (rng.normal(size=(rows, 64)) * 3.0 + 1.0).astype(dtype)
    gain, bias = (rng.split(n).normal(size=64).astype(dtype) for n in ("gain", "bias"))
    g = rng.split("g").normal(size=x.shape).astype(dtype)
    c = np.full((64, 1), 1.0 / 64, dtype=dtype)
    xhat = x - x @ c
    inv = 1.0 / np.sqrt((xhat * xhat) @ c + dtype(1e-5))
    xhat *= inv
    dxhat = g * gain
    dx = (dxhat - dxhat @ c - xhat * ((dxhat * xhat) @ c)) * inv
    y = layer_norm(parameter(x), Tensor(gain), Tensor(bias))
    assert _same_bits(y.data, xhat * gain + bias) and _same_bits(y._backward(g)[0], dx)
    w = rng.split("w").normal(size=(192, 64)).astype(dtype)
    assert _same_bits(linear(Tensor(x), Tensor(w)).data, x @ w.T)


def _causal(L):
    return np.triu(np.full((L, L), -1e9, dtype=np.float32), k=1)


def _key_padding(lengths, M):
    pad = np.zeros((len(lengths), 1, 1, M), dtype=np.float32)
    for i, n in enumerate(lengths):
        pad[i, ..., n:] = -1e9
    return pad


# (fused q/k/v rows, heads, query rows, mask, dropout rate): what the
# backbone, the projector and a cached decode step hand to `attention`.
ATTENTION_CASES = {
    "no-mask": ((3, 9, 96), 4, 9, None, 0.0),
    "causal": ((3, 19, 96), 4, 19, _causal(19), 0.0),
    "key-padding": ((3, 11, 96), 4, 11, _key_padding((7, 11, 3), 11), 0.0),
    "dropout": ((3, 11, 96), 4, 11, _key_padding((7, 11, 3), 11), 0.1),
    "cached-row": ((23, 192), 4, 1, None, 0.0),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_matches_the_op_chain_within_float32_rounding(case):
    # The fused op computes the chain's formulas in the same dtype on head
    # views of the rows; only the softmax's row sums run as mat-vecs.
    # Measured worst gaps are ~2 ulps of the largest output and ~3 of the
    # largest d(qkv); the bound is 64.
    shape, n_heads, n_query, mask, drop = ATTENTION_CASES[case]
    rng = Rng(90)
    rows = rng.split("qkv").normal(size=shape)
    rows[..., : 2 * shape[-1] // 3] *= 2.0  # the q and k columns
    qkv = parameter(rows.astype(np.float32))
    inv = 1.0 / float(np.sqrt(shape[-1] // 3 // n_heads))

    def stream():  # the same keep mask for both: a fresh `r.split("attn")`
        return Rng(91).split("layer0").split("attn") if drop else None

    got = attention(qkv, n_heads, n_query, mask, inv, drop, stream())
    want = attention_by_head_slices(qkv, n_heads, n_query, mask, inv, drop, stream())
    assert got.shape == shape[:-2] + (n_query, shape[-1] // 3)
    _within_ulps_of_largest(got.data, want.data, 64)
    w = Tensor(rng.split("w").normal(size=got.shape).astype(np.float32))
    g_got, g_want = grad(mean(mul(got, w)), [qkv])[qkv], grad(mean(mul(want, w)), [qkv])[qkv]
    _within_ulps_of_largest(g_got.data, g_want.data, 64)
    if n_query < shape[-2]:  # rows that only give keys and values get no query gradient
        np.testing.assert_array_equal(g_got.data[..., : shape[-2] - n_query, : shape[-1] // 3], 0.0)
    if drop:  # the keep mask really drops: without it the outputs differ
        plain = attention(qkv, n_heads, n_query, mask, inv, 0.0, None)
        assert not np.allclose(plain.data, got.data, rtol=1e-3)


def test_embedding_backward_matches_add_at_within_float32_rounding():
    # The one-hot GEMM sums each id's rows in its own order; np.add.at sums
    # them one at a time. Ids repeat within and across rows, and the table
    # is a concat of the token table and speech rows, as in a speech batch.
    rng = Rng(92)
    wte = parameter(rng.split("wte").normal(size=(12, 16)).astype(np.float32))
    speech = parameter(rng.split("speech").normal(size=(5, 16)).astype(np.float32))
    ids = rng.split("ids").integers(0, 17, size=(4, 9))
    ids[0, :4] = 3
    ids[1, :4] = 13
    for table in (wte, concat([wte, speech], axis=0)):
        ids_in = ids % table.shape[0]
        y = embedding_lookup(table, ids_in)
        g = rng.split("g", str(table.shape[0])).normal(size=y.shape).astype(np.float32)
        got = y._backward(g)[0]
        want = embedding_backward_by_add_at(table.shape, ids_in, g)
        counts = np.bincount(ids_in.reshape(-1), minlength=table.shape[0])
        abs_sum = embedding_backward_by_add_at(table.shape, ids_in, np.abs(g))
        _within_float32_sum_bound(got, want, abs_sum, int(counts.max()))
        assert counts.max() >= 4 and np.array_equal(got[counts == 0], want[counts == 0])


# Thirty pretraining-sized steps (the default backbone, 16 QA-length text
# rows, content noise) in a fresh process; prints the mean minor page
# faults per step after ten warm-up steps.
_FAULTS_PER_STEP = """
import resource

import numpy as np

from mmadapt.model import Backbone, BackboneConfig
from mmadapt.prompting import PromptedExample
from mmadapt.rng import Rng
from mmadapt.tensor import grad
from mmadapt.trainer import AdamW, OptimizerConfig, batch_loss

rng = Rng(0)
backbone = Backbone(BackboneConfig(), rng.split("init"))
backbone.set_trainable(True)
params = backbone.params
opt = AdamW(params, OptimizerConfig(lr=1e-3))
prompts = [
    PromptedExample(
        id=str(i), task="QA", language="src", validity="valid", modality="text", prefix_tokens=(4,),
        content_tokens=tuple(int(t) for t in rng.split("row", str(i)).integers(32, 48, size=12 + i % 5)),
        suffix_tokens=(5, 12, 40, 6), target_tokens=(20, 41, 42, 24, 1),
    )
    for i in range(16)
]
faults = []
for step in range(30):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss = batch_loss(backbone, prompts, train=True, rng=rng.split("step", str(step)), content_noise=0.1)
    grads = grad(loss, list(params.values()))
    del loss
    opt.step({name: grads[t].data for name, t in params.items()})
    del grads
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(np.mean(faults[10:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's mallopt")
def test_training_steps_reuse_freed_memory_instead_of_faulting_it_in():
    # Without the raised trim and mmap thresholds glibc returns each step's
    # freed temporaries to the OS and the next step faults them in again:
    # over a thousand minor faults per step on this script.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env, capture_output=True, text=True, check=True)
    assert float(out.stdout) < 100


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: dropout(Tensor(np.ones(3)), 1.0, Rng(0)), ContractViolation, "dropout rate", id="dropout-1"),
    pytest.param(lambda: dropout(Tensor(np.ones(3)), -0.1, Rng(0)), ContractViolation, "dropout rate",
                 id="dropout-negative"),
    pytest.param(lambda: linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2)))), ShapeError, "linear",
                 id="linear-width"),
    pytest.param(lambda: linear(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 4, 3)))), ShapeError, "2-D weight",
                 id="linear-3d-weight"),
    pytest.param(lambda: linear(Tensor(np.float64(1.0)), Tensor(np.ones((4, 1)))), ShapeError, "2-D weight",
                 id="linear-scalar-x"),
    pytest.param(lambda: add(Tensor(np.ones((3, 4))), Tensor(np.ones((3,)))), ShapeError, "add", id="add-broadcast"),
    pytest.param(lambda: append_rows(np.empty((2, 3)), None, Tensor(np.ones((3, 3)))), ShapeError, "append_rows",
                 id="append-rows-capacity"),
    pytest.param(lambda: append_rows(np.empty((4, 3)), None, Tensor(np.ones((1, 2)))), ShapeError, "append_rows",
                 id="append-rows-width"),
    pytest.param(lambda: add_low_rank(Tensor(np.ones((4, 2))), [(3, Tensor(np.ones((2, 1))), Tensor(np.ones((1, 2))))],
                                      1.0), ShapeError, "add_low_rank", id="add-low-rank-rows"),
    pytest.param(lambda: attention(Tensor(np.ones((2, 3, 12))), 2, 4, None, 1.0, 0.0, None), ShapeError,
                 "4 query rows", id="attention-kv-rows"),
    pytest.param(lambda: attention(Tensor(np.ones((2, 3, 12))), 2, 0, None, 1.0, 0.0, None), ShapeError,
                 "0 query rows", id="attention-no-query"),
    pytest.param(lambda: attention(Tensor(np.ones((2, 3, 10))), 2, 3, None, 1.0, 0.0, None), ShapeError,
                 "fused rows", id="attention-width"),
    pytest.param(lambda: attention(Tensor(np.ones((2, 3, 12))), 0, 3, None, 1.0, 0.0, None), ShapeError,
                 "0 heads", id="attention-heads"),
    pytest.param(lambda: attention(Tensor(np.ones(12)), 2, 1, None, 1.0, 0.0, None), ShapeError, "fused rows",
                 id="attention-rank"),
    pytest.param(lambda: attention(Tensor(np.ones((2, 3, 12))), 2, 3, np.zeros((2, 2, 3)), 1.0, 0.0, None),
                 ShapeError, "mask", id="attention-mask"),
    pytest.param(lambda: attention(Tensor(np.ones((2, 3, 12))), 2, 3, None, 1.0, 1.0, Rng(0)),
                 ContractViolation, "dropout rate", id="attention-dropout-1"),
    pytest.param(lambda: masked_cross_entropy(Tensor(np.zeros((2, 3, 5))), np.zeros((2, 4)), np.ones((2, 4), bool)),
                 ShapeError, "masked_cross_entropy", id="cross-entropy-targets"),
    pytest.param(lambda: masked_cross_entropy(Tensor(np.zeros((2, 3, 5))), np.zeros((2, 3)), np.ones((3, 2), bool)),
                 ShapeError, "masked_cross_entropy", id="cross-entropy-mask"),
])
def test_tensor_checks_raise_their_typed_errors(call, error, match):
    with pytest.raises(error, match=match) as raised:
        call()
    assert type(raised.value) is error
