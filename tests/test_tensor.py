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
    concat,
    dropout,
    embedding_lookup,
    gelu,
    grad,
    layer_norm,
    masked_cross_entropy,
    matmul,
    merge_heads,
    no_grad,
    parameter,
    scale,
    softmax,
    split_heads,
    stack,
    tape_of,
    tslice,
)

from references import finite_diff_check, mean, mul


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
        return mean(dropout(x, 0.5, stream, train=True))

    with pytest.raises(ContractViolation):
        finite_diff_check(f, [x])


@pytest.mark.parametrize(
    "name",
    [
        "matmul",
        "matmul_tb",
        "matmul_batched",
        "add_broadcast",
        "scale",
        "mul",
        "concat",
        "stack",
        "slice",
        "split_heads",
        "merge_heads",
        "embedding",
        "layer_norm",
        "softmax",
        "gelu",
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
    elif name == "stack":
        a, b = parameter(rng.normal(size=(3,))), parameter(rng.normal(size=(3,)))
        f = lambda _: mean(mul(stack([a, b]), stack([a, b])))
        params = [a, b]
    elif name == "slice":
        a = parameter(rng.normal(size=(4, 6)))
        f = lambda _: mean(mul(tslice(a, (slice(1, 3), slice(None, 4))), tslice(a, (slice(1, 3), slice(None, 4)))))
        params = [a]
    elif name == "split_heads":
        a, w = parameter(rng.normal(size=(2, 3, 6))), Tensor(rng.split("w").normal(size=(2, 3, 3, 2)))
        f = lambda _: mean(mul(split_heads(a, 3), w))
        params = [a]
    elif name == "merge_heads":
        a, w = parameter(rng.normal(size=(2, 3, 4, 2))), Tensor(rng.split("w").normal(size=(2, 4, 6)))
        f = lambda _: mean(mul(merge_heads(a), w))
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
    elif name == "softmax":
        x = parameter(rng.normal(size=(3, 5)))
        f = lambda _: mean(mul(softmax(x), softmax(x)))
        params = [x]
    elif name == "gelu":
        x = parameter(rng.normal(size=(4, 4)))
        f = lambda _: mean(mul(gelu(x), gelu(x)))
        params = [x]
    elif name == "dropout_fixed_mask":
        x = parameter(rng.normal(size=(6, 6)))
        f = lambda _: mean(mul(dropout(x, 0.4, Rng(123), train=True), x))
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


def test_split_and_merge_heads_are_the_per_head_slices_and_their_concat():
    x = Tensor(np.arange(2 * 3 * 8, dtype=np.float32).reshape(2, 3, 8))
    heads = split_heads(x, 4)
    assert heads.shape == (2, 4, 3, 2)
    for h in range(4):
        np.testing.assert_array_equal(heads.data[:, h], x.data[..., 2 * h : 2 * h + 2])
    np.testing.assert_array_equal(merge_heads(heads).data, x.data)


def test_split_heads_and_add_raise_shape_errors():
    with pytest.raises(ShapeError, match="split_heads"):
        split_heads(Tensor(np.ones((3, 10))), 4)
    with pytest.raises(ShapeError, match="split_heads"):
        split_heads(Tensor(np.ones(8)), 2)
    with pytest.raises(ShapeError, match="add"):
        add(Tensor(np.ones((3, 4))), Tensor(np.ones((3,))))
    with pytest.raises(ShapeError, match="merge_heads"):
        merge_heads(Tensor(np.ones((3, 4))))


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


def _mean_layer_norm(x, gain, bias, g, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    n = x.shape[-1]
    dxhat = g * gain
    dx = (inv / n) * (n * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    return xhat * gain + bias, dx


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
        want_y, want_dx = _mean_layer_norm(x, gain, bias, g)
        assert _same_bits(y.data, want_y) and _same_bits(y._backward(g)[0], want_dx)


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
