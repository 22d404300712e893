import numpy as np
import pytest

from mmadapt.errors import ConfigError, ContractViolation, LengthError, ShapeError
from mmadapt.model import (
    LORA_SITES,
    MAX_FRAMES,
    Backbone,
    BackboneConfig,
    KVCache,
    LoraAdapters,
    LoraConfig,
    ProjectorConfig,
    SpeechProjector,
    average_frames,
    fold_adapters,
    splice_grid,
    splice_prompt,
)
from mmadapt.rng import Rng
from mmadapt.tensor import (
    Tensor,
    add,
    concat,
    embedding_lookup,
    gelu,
    grad,
    layer_norm,
    masked_cross_entropy,
    matmul,
    scale,
    softmax,
    tslice,
)

from references import average_frames_by_group, embed, finite_diff_check, mean, mul

SMALL_BB = BackboneConfig(vocab_size=12, d_model=16, n_layers=2, n_heads=2, d_ffn=24, max_seq_len=32)
SMALL_PROJ = ProjectorConfig(n_layers=1, n_heads=2, d_in=8, d_ffn=12, d_out=16, dropout=0.1, frame_avg_k=3)


def test_average_frames_hand_case():
    frames = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    np.testing.assert_allclose(average_frames(frames, 3), [[2.0], [5.0]])


def test_average_frames_partial_group_of_ones():
    out = average_frames(np.ones((7, 4)), 3)
    assert out.shape == (3, 4)
    np.testing.assert_allclose(out, 1.0)


def test_average_frames_matches_group_mean_oracle():
    rng = Rng(1)
    frames = rng.normal(size=(300, 32))
    out = average_frames(frames, 3)
    assert out.shape == (100, 32)
    for g in range(100):
        np.testing.assert_allclose(out[g], frames[3 * g : 3 * g + 3].mean(axis=0), rtol=1e-12)


def test_average_frames_k1_identity_and_length():
    rng = Rng(2)
    for T in (1, 2, 3, 7, 10):
        frames = rng.normal(size=(T, 5))
        np.testing.assert_array_equal(average_frames(frames, 1), frames)
        assert average_frames(frames, 4).shape[0] == int(np.ceil(T / 4))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_average_frames_equals_group_by_group_mean_bit_for_bit(dtype):
    rng = Rng(3)
    for T in range(1, 80):
        frames = rng.split(str(T)).normal(size=(T, 32)).astype(dtype)
        for k in (1, 2, 3, 4, 6):
            got, want = average_frames(frames, k), average_frames_by_group(frames, k)
            assert got.dtype == want.dtype and np.array_equal(got, want), (T, k)


def test_average_frames_empty_rejected():
    with pytest.raises(ContractViolation):
        average_frames(np.zeros((0, 3)), 3)


def test_projector_shape_and_eval_determinism():
    proj = SpeechProjector(SMALL_PROJ, Rng(3), dtype=np.float64)
    frames = Tensor(Rng(4).normal(size=(1, SMALL_PROJ.d_in)))
    out = proj.forward(frames, train=False)
    assert out.shape == (1, SMALL_PROJ.d_out)
    out2 = proj.forward(frames, train=False)
    np.testing.assert_array_equal(out.data, out2.data)


def test_projector_train_mode_needs_rng_and_differs():
    proj = SpeechProjector(SMALL_PROJ, Rng(3), dtype=np.float64)
    frames = Tensor(Rng(4).normal(size=(4, SMALL_PROJ.d_in)))
    with pytest.raises(ContractViolation):
        proj.forward(frames, train=True)
    a = proj.forward(frames, train=True, rng=Rng(5))
    b = proj.forward(frames, train=False)
    assert not np.array_equal(a.data, b.data)


def test_projector_rejects_wrong_width():
    proj = SpeechProjector(SMALL_PROJ, Rng(3))
    with pytest.raises(ShapeError):
        proj.forward(Tensor(np.zeros((2, SMALL_PROJ.d_in + 1), dtype=np.float32)), train=False)


def test_projector_rejects_more_frames_than_its_position_table():
    proj = SpeechProjector(SMALL_PROJ, Rng(3))
    assert proj.params["wpe"].shape == (MAX_FRAMES, SMALL_PROJ.d_in)
    assert proj.forward(Tensor(np.zeros((MAX_FRAMES, SMALL_PROJ.d_in), dtype=np.float32))).shape[0] == MAX_FRAMES
    with pytest.raises(LengthError):
        proj.forward(Tensor(np.zeros((MAX_FRAMES + 1, SMALL_PROJ.d_in), dtype=np.float32)))


def _scale_up_weights(params: dict, rng: Rng, std: float = 0.4) -> None:
    # At the tiny 0.02 init, attention is near-uniform and q/k gradients are
    # ~1e-9; the relative-error denominator then amplifies rounding noise.
    for name, t in params.items():
        if not name.endswith((".g", ".b")):
            t.data = (rng.split(name).normal(size=t.shape) * std).astype(t.data.dtype)


def test_projector_gradients_match_finite_differences():
    proj = SpeechProjector(SMALL_PROJ, Rng(6), dtype=np.float64)
    _scale_up_weights(proj.params, Rng(60))
    frames = Rng(7).normal(size=(3, SMALL_PROJ.d_in))
    params = list(proj.params.values())

    def f(_):
        out = proj.forward(Tensor(frames), train=False)
        return mean(mul(out, out))

    assert finite_diff_check(f, params, epsilon=1e-5) < 1e-4


# Site name -> the backbone weight an adapter at that site perturbs.
SITE_WEIGHTS = {"attn_q": "wq", "attn_k": "wk", "attn_v": "wv", "attn_out": "wo", "ffn_up": "ffn_up", "ffn_down": "ffn_down"}
ONE_SITE = BackboneConfig(vocab_size=4, d_model=2, n_layers=1, n_heads=1, d_ffn=2, max_seq_len=4)


def _one_pair(cfg: LoraConfig, A, B) -> LoraAdapters:
    adapters = LoraAdapters(ONE_SITE, cfg, Rng(0), dtype=np.float64)
    adapters.load_arrays({"layers.0.attn_q.A": np.asarray(A, dtype=float), "layers.0.attn_q.B": np.asarray(B, dtype=float)})
    return adapters


def _unfolded_linear(x: Tensor, W: Tensor, lora: LoraAdapters, prefix: str) -> Tensor:
    """The reference adapted projection, x @ W^T + (alpha/r) * (x @ A^T) @ B^T,
    computed per row without touching W, for the adapter `{prefix}.A/B`."""
    A, B = lora.params[f"{prefix}.A"], lora.params[f"{prefix}.B"]
    delta = matmul(matmul(x, A, transpose_b=True), B, transpose_b=True)
    return add(matmul(x, W, transpose_b=True), scale(delta, lora.cfg.scaling))


def test_lora_zero_b_is_exact_identity():
    rng = Rng(8)
    adapters = LoraAdapters(ONE_SITE, LoraConfig(rank=4, alpha=8.0, targets=("attn_q",)), rng, dtype=np.float64)
    W = Tensor(rng.normal(size=(2, 2)))
    folded = fold_adapters({"layers.0.wq": W}, adapters)["layers.0.wq"]
    assert folded.data.tobytes() == W.data.tobytes()
    x = Tensor(rng.normal(size=(5, 2)))
    np.testing.assert_array_equal(matmul(x, folded, transpose_b=True).data, x.data @ W.data.T)


def test_lora_hand_case():
    adapters = _one_pair(LoraConfig(rank=1, alpha=2.0, targets=("attn_q",)), [[1.0, 0.0]], [[1.0], [0.0]])
    folded = fold_adapters({"layers.0.wq": Tensor(np.eye(2))}, adapters)["layers.0.wq"]
    np.testing.assert_allclose(folded.data, [[3.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(matmul(Tensor(np.array([[1.0, 1.0]])), folded, transpose_b=True).data, [[3.0, 1.0]])


def _with_random_b(adapters: LoraAdapters, rng: Rng, std: float = 0.3) -> LoraAdapters:
    for name, t in adapters.params.items():
        _, layer, site, part = name.split(".")
        if part == "B":
            t.data = rng.split(layer, site).normal(size=t.shape) * std
    return adapters


def test_lora_matches_dense_delta_oracle():
    # Adapters on all six sites must equal a plain backbone whose site
    # weights are W + (alpha/r) * B @ A.
    bb = Backbone(SMALL_BB, Rng(9), dtype=np.float64)
    _scale_up_weights(bb.params, Rng(90))
    cfg = LoraConfig(rank=3, alpha=16.0, targets=LORA_SITES)
    adapters = _with_random_b(LoraAdapters(SMALL_BB, cfg, Rng(91), dtype=np.float64), Rng(92))
    merged = Backbone(SMALL_BB, Rng(9), dtype=np.float64)
    arrays = {k: a.copy() for k, a in bb.param_arrays().items()}
    p = adapters.params
    for layer in range(SMALL_BB.n_layers):
        for site in LORA_SITES:
            delta = p[f"layers.{layer}.{site}.B"].data @ p[f"layers.{layer}.{site}.A"].data
            arrays[f"layers.{layer}.{SITE_WEIGHTS[site]}"] += cfg.scaling * delta
    merged.load_arrays(arrays)
    rng = Rng(93)
    for _ in range(10):
        L = int(rng.integers(2, 12))
        ids = rng.integers(0, SMALL_BB.vocab_size, size=(2, L))
        got = bb.forward(embed(bb, ids), np.arange(L), lora=adapters).data
        want = merged.forward(embed(merged, ids), np.arange(L)).data
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_lora_shape_mismatch_rejected():
    adapters = LoraAdapters(SMALL_BB, LoraConfig(rank=2, alpha=4.0), Rng(10))
    other_rank = LoraAdapters(SMALL_BB, LoraConfig(rank=3, alpha=4.0), Rng(10))
    with pytest.raises(ShapeError):
        adapters.load_arrays(other_rank.param_arrays())


def test_lora_frozen_base_gets_no_gradient():
    rng = Rng(10)
    adapters = LoraAdapters(ONE_SITE, LoraConfig(rank=2, alpha=4.0, targets=("attn_q",)), rng, dtype=np.float64)
    params = _with_random_b(adapters, rng.split("B")).params
    A, B = params["layers.0.attn_q.A"], params["layers.0.attn_q.B"]
    W = Tensor(rng.normal(size=(2, 2)))  # frozen: requires_grad False
    folded = fold_adapters({"layers.0.wq": W}, adapters)["layers.0.wq"]
    y = matmul(Tensor(rng.normal(size=(3, 2))), folded, transpose_b=True)
    g = grad(mean(mul(y, y)), [A, B, W])
    assert np.any(g[A].data != 0) and np.any(g[B].data != 0)
    np.testing.assert_array_equal(g[W].data, 0)


def test_folded_projection_matches_unfolded_reference_on_every_site():
    # Values and A/B gradients through the fold equal the per-row formula.
    bb = Backbone(SMALL_BB, Rng(40), dtype=np.float64)
    _scale_up_weights(bb.params, Rng(41))
    adapters = _with_random_b(
        LoraAdapters(SMALL_BB, LoraConfig(rank=3, alpha=6.0, targets=LORA_SITES), Rng(42), dtype=np.float64), Rng(43)
    )
    folded = fold_adapters(bb.params, adapters)
    rng = Rng(44)
    for layer in range(SMALL_BB.n_layers):
        for site in LORA_SITES:
            name = f"layers.{layer}.{SITE_WEIGHTS[site]}"
            prefix = f"layers.{layer}.{site}"
            A, B = adapters.params[f"{prefix}.A"], adapters.params[f"{prefix}.B"]
            W = bb.params[name]
            x = Tensor(rng.split(name).normal(size=(2, 5, W.shape[1])))
            weights = Tensor(rng.split(name, "w").normal(size=(2, 5, W.shape[0])))
            want = _unfolded_linear(x, W, adapters, prefix)
            got = matmul(x, folded[name], transpose_b=True)
            np.testing.assert_allclose(got.data, want.data, rtol=1e-10, atol=1e-12)
            g_want = grad(mean(mul(want, weights)), [A, B])
            g_got = grad(mean(mul(got, weights)), [A, B])
            for t in (A, B):
                assert np.any(g_want[t].data != 0)
                np.testing.assert_allclose(g_got[t].data, g_want[t].data, rtol=1e-10, atol=1e-12)


def test_lora_config_guards():
    with pytest.raises(ConfigError):
        LoraConfig(rank=0)
    with pytest.raises(ConfigError):
        LoraConfig(targets=("attn_q", "banana"))
    assert "attn_v" not in LoraConfig().targets
    adapters = LoraAdapters(SMALL_BB, LoraConfig(targets=("attn_q", "attn_v")), Rng(11))
    assert list(adapters.params) == [
        f"layers.{i}.{s}.{part}" for i in range(SMALL_BB.n_layers) for s in ("attn_q", "attn_v") for part in "AB"
    ]


def _components() -> dict:
    return {
        "backbone": Backbone(SMALL_BB, Rng(30)),
        "projector": SpeechProjector(SMALL_PROJ, Rng(31)),
        "lora": LoraAdapters(SMALL_BB, LoraConfig(rank=2, alpha=4.0), Rng(32)),
    }


@pytest.mark.parametrize("component", ["backbone", "projector", "lora"])
def test_load_arrays_round_trips_and_rejects_wrong_names_and_shapes(component):
    obj = _components()[component]
    arrays = {k: Rng(33).split(k).normal(size=a.shape).astype(np.float32) for k, a in obj.param_arrays().items()}
    obj.load_arrays(arrays)
    for k, a in obj.param_arrays().items():
        np.testing.assert_array_equal(a, arrays[k])
    first = next(iter(arrays))
    missing = {k: a for k, a in arrays.items() if k != first}
    renamed = {**missing, first + ".x": arrays[first]}
    reshaped = {**arrays, first: np.zeros(arrays[first].shape + (1,), dtype=np.float32)}
    for bad in (missing, renamed, reshaped):
        with pytest.raises(ShapeError):
            obj.load_arrays(bad)
    for k, a in obj.param_arrays().items():  # a rejected load changes nothing
        np.testing.assert_array_equal(a, arrays[k])


def test_zero_init_adapters_leave_backbone_logits_bit_identical():
    bb = Backbone(SMALL_BB, Rng(11), dtype=np.float64)
    adapters = LoraAdapters(SMALL_BB, LoraConfig(rank=2, alpha=4.0), Rng(12), dtype=np.float64)
    rng = Rng(13)
    for _ in range(20):
        L = int(rng.integers(2, 10))
        ids = rng.integers(0, SMALL_BB.vocab_size, size=L)
        emb = embed(bb, ids)
        pos = np.arange(L)
        base = bb.forward(emb, pos).data
        with_lora = bb.forward(embed(bb, ids), pos, lora=adapters).data
        assert np.array_equal(base, with_lora)


def test_backbone_rejects_overflow_and_bad_width():
    bb = Backbone(SMALL_BB, Rng(14))
    with pytest.raises(LengthError):
        bb.forward(embed(bb, np.zeros(SMALL_BB.max_seq_len + 1, dtype=int)), np.zeros(SMALL_BB.max_seq_len + 1, dtype=int))
    with pytest.raises(ShapeError):
        bb.forward(Tensor(np.zeros((3, SMALL_BB.d_model + 1))), np.arange(3))


def test_splice_text_only_masks_targets():
    bb = Backbone(SMALL_BB, Rng(15), dtype=np.float64)
    sp = splice_prompt(bb.params["wte"], [1, 2, 3], None, [4, 5], [6, 7, 8], SMALL_BB.max_seq_len)
    assert sp.embeddings.shape == (8, SMALL_BB.d_model)
    np.testing.assert_array_equal(sp.loss_mask, [False] * 5 + [True] * 3)
    np.testing.assert_array_equal(sp.positions, np.arange(8))
    np.testing.assert_array_equal(sp.token_ids, [1, 2, 3, 4, 5, 6, 7, 8])


def test_splice_with_speech_block_length_arithmetic():
    bb = Backbone(SMALL_BB, Rng(16), dtype=np.float64)
    speech = Tensor(Rng(17).normal(size=(5, SMALL_BB.d_model)))
    sp = splice_prompt(bb.params["wte"], [1], speech, [2, 3], [4, 5], SMALL_BB.max_seq_len)
    assert len(sp.token_ids) == 1 + 5 + 2 + 2
    np.testing.assert_array_equal(sp.token_ids[1:6], -1)
    assert sp.loss_mask.sum() == 2
    assert not sp.loss_mask[:8].any()


def test_splice_mask_count_matches_targets_randomized():
    bb = Backbone(SMALL_BB, Rng(18), dtype=np.float64)
    rng = Rng(19)
    for _ in range(25):
        n_pre, m, n_suf, n_tgt = (int(rng.integers(1, 5)) for _ in range(4))
        speech = Tensor(rng.normal(size=(m, SMALL_BB.d_model)))
        sp = splice_prompt(
            bb.params["wte"],
            list(rng.integers(0, 12, size=n_pre)),
            speech,
            list(rng.integers(0, 12, size=n_suf)),
            list(rng.integers(0, 12, size=n_tgt)),
            SMALL_BB.max_seq_len,
        )
        assert sp.loss_mask.sum() == n_tgt
        assert not sp.loss_mask[: n_pre + m + n_suf].any()


def test_splice_grid_numbers_speech_rows_across_the_batch():
    rows = [((1,), 2, (3,), (4,)), ((6, 7), 3, (), (8,)), ((1,), (2, 3), (), (4,))]
    index, token_ids, loss_mask = splice_grid(rows, 10, 16)
    # Speech rows count on from the vocabulary, row by row; padding gathers row 0.
    np.testing.assert_array_equal(index, [[1, 10, 11, 3, 4, 0], [6, 7, 12, 13, 14, 8], [1, 2, 3, 4, 0, 0]])
    np.testing.assert_array_equal(token_ids, [[1, -1, -1, 3, 4, -1], [6, 7, -1, -1, -1, 8], [1, 2, 3, 4, -1, -1]])
    np.testing.assert_array_equal(loss_mask, [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0]])
    with pytest.raises(LengthError):
        splice_grid(rows, 10, 5)


def test_splice_prompt_gathers_each_piece():
    bb = Backbone(SMALL_BB, Rng(22), dtype=np.float64)
    wte = bb.params["wte"]
    speech = Tensor(Rng(23).normal(size=(3, SMALL_BB.d_model)))
    sp = splice_prompt(wte, [1, 2], speech, [3], [4, 5], SMALL_BB.max_seq_len)
    np.testing.assert_array_equal(sp.embeddings.data[:2], wte.data[[1, 2]])
    np.testing.assert_array_equal(sp.embeddings.data[2:5], speech.data)
    np.testing.assert_array_equal(sp.embeddings.data[5:], wte.data[[3, 4, 5]])


def test_splice_overflow_rejected():
    bb = Backbone(SMALL_BB, Rng(20), dtype=np.float64)
    with pytest.raises(LengthError):
        splice_prompt(bb.params["wte"], list(range(8)), None, list(range(8)), list(range(30)), SMALL_BB.max_seq_len)


def test_end_to_end_gradient_projector_lora_backbone_loss():
    # Full path: frames -> projector -> splice -> frozen backbone + adapters -> masked CE.
    bb = Backbone(SMALL_BB, Rng(21), dtype=np.float64)
    bb.set_trainable(False)
    _scale_up_weights(bb.params, Rng(210))
    proj = SpeechProjector(SMALL_PROJ, Rng(22), dtype=np.float64)
    _scale_up_weights(proj.params, Rng(220))
    adapters = LoraAdapters(SMALL_BB, LoraConfig(rank=2, alpha=4.0), Rng(23), dtype=np.float64)
    for name, t in adapters.params.items():  # non-zero B so its gradient path is exercised
        if name.endswith(".B"):
            t.data = Rng(24).normal(size=t.shape) * 0.1
    frames = Rng(25).normal(size=(2, SMALL_PROJ.d_in))
    params = list(proj.params.values()) + list(adapters.params.values())

    def f(_):
        speech = proj.forward(Tensor(frames), train=False)
        sp = splice_prompt(bb.params["wte"], [0, 1], speech, [2], [3, 4], SMALL_BB.max_seq_len)
        logits = bb.forward(sp.embeddings, sp.positions, lora=adapters)
        labels = np.roll(sp.token_ids, -1)
        mask = np.roll(sp.loss_mask, -1)
        mask[-1] = False
        return masked_cross_entropy(logits, np.where(mask, labels, 0), mask)

    err = finite_diff_check(f, params, epsilon=1e-5)
    assert err < 1e-4


def test_backbone_unreachable_when_frozen():
    bb = Backbone(SMALL_BB, Rng(26), dtype=np.float64)
    bb.set_trainable(False)
    adapters = _with_random_b(LoraAdapters(SMALL_BB, LoraConfig(rank=2, alpha=4.0), Rng(27), dtype=np.float64), Rng(28))
    ids = np.arange(5)
    for lora in (None, adapters):
        logits = bb.forward(embed(bb, ids), np.arange(5), lora=lora)
        loss = masked_cross_entropy(logits, np.zeros(5, dtype=int), np.ones(5, dtype=bool))
        g = grad(loss, list(bb.params.values()) + list(adapters.params.values()))
        assert all(np.all(g[t].data == 0) for t in bb.params.values())
        assert all(np.any(g[t].data != 0) == (lora is not None) for t in adapters.params.values())


# --- head-batched attention, pinned against the per-head loop it replaced ---

HEADS_BB = BackboneConfig(vocab_size=12, d_model=16, n_layers=2, n_heads=4, d_ffn=24, max_seq_len=32)
HEADS_PROJ = ProjectorConfig(n_layers=2, n_heads=4, d_in=8, d_ffn=12, d_out=16, dropout=0.1, frame_avg_k=3)


def _per_head_attention(q, k, v, n_heads, mask):
    """Each head sliced out of q/k/v and attended alone; heads concatenated."""
    head_dim = q.shape[-1] // n_heads
    inv = 1.0 / float(np.sqrt(head_dim))
    heads = []
    for h in range(n_heads):
        key = (Ellipsis, slice(h * head_dim, (h + 1) * head_dim))
        qh, kh, vh = (tslice(t, key) for t in (q, k, v))
        scores = scale(matmul(qh, kh, transpose_b=True), inv)
        if mask is not None:
            scores = add(scores, mask)
        heads.append(matmul(softmax(scores), vh))
    return concat(heads, axis=-1)


def _per_head_layers(stack, x, mask, kv=None):
    """`_Stack._layers` with dropout off, attending head by head; `kv` maps
    layer -> (keys, values) of shape (..., S, d) for cached rows."""
    p = stack.params
    for i in range(stack.n_layers):
        pre = f"layers.{i}."
        h = layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
        q, k, v = (matmul(h, p[pre + w], transpose_b=True) for w in ("wq", "wk", "wv"))
        if kv is not None:
            if i in kv:
                k, v = concat([kv[i][0], k], axis=-2), concat([kv[i][1], v], axis=-2)
            kv[i] = (k, v)
        x = add(x, matmul(_per_head_attention(q, k, v, stack.n_heads, mask), p[pre + "wo"], transpose_b=True))
        h = layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
        x = add(x, matmul(gelu(matmul(h, p[pre + "ffn_up"], transpose_b=True)), p[pre + "ffn_down"], transpose_b=True))
    return layer_norm(x, p["ln_f.g"], p["ln_f.b"])


def _per_head_backbone(bb, emb, past=0, kv=None):
    L = emb.shape[-2]
    x = add(emb, embedding_lookup(bb.params["wpe"], np.arange(past, past + L)))
    mask = None if L == 1 else Tensor(np.triu(np.full((L, past + L), -1e9, dtype=np.float32), k=past + 1))
    return matmul(_per_head_layers(bb, x, mask, kv), bb.params["lm_head"], transpose_b=True)


def _assert_same_grads(loss_a, loss_b, params):
    ga, gb = grad(loss_a, params), grad(loss_b, params)
    for t in params:
        np.testing.assert_array_equal(ga[t].data, gb[t].data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_batched_backbone_equals_the_per_head_loop(dtype):
    bb = Backbone(HEADS_BB, Rng(50), dtype=dtype)
    _scale_up_weights(bb.params, Rng(51))
    ids = Rng(52).integers(0, HEADS_BB.vocab_size, size=(3, 9))
    weights = Tensor(Rng(53).normal(size=(3, 9, HEADS_BB.vocab_size)).astype(dtype))
    got = bb.forward(embed(bb, ids), np.arange(9))
    want = _per_head_backbone(bb, embed(bb, ids))
    np.testing.assert_array_equal(got.data, want.data)
    _assert_same_grads(mean(mul(got, weights)), mean(mul(want, weights)), list(bb.params.values()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_batched_cached_backbone_equals_the_per_head_loop(dtype):
    # A 5-row prefill, then one row at a time, as greedy decoding feeds it.
    bb = Backbone(HEADS_BB, Rng(54), dtype=dtype)
    _scale_up_weights(bb.params, Rng(55))
    ids = Rng(56).integers(0, HEADS_BB.vocab_size, size=9)
    cache, kv = KVCache(bb.params), {}
    loss_got = loss_want = None
    for lo, hi in ((0, 5), (5, 6), (6, 7), (7, 8), (8, 9)):
        got = bb.forward(embed(bb, ids[lo:hi]), np.arange(lo, hi), cache=cache)
        want = _per_head_backbone(bb, embed(bb, ids[lo:hi]), past=lo, kv=kv)
        np.testing.assert_array_equal(got.data, want.data)
        assert cache.length == hi
        w = Tensor(Rng(57).split(str(lo)).normal(size=got.shape).astype(dtype))
        step_got, step_want = mean(mul(got, w)), mean(mul(want, w))
        loss_got = step_got if loss_got is None else add(loss_got, step_got)
        loss_want = step_want if loss_want is None else add(loss_want, step_want)
    _assert_same_grads(loss_got, loss_want, list(bb.params.values()))


def _padded_frames(lengths, d_in, dtype, rng):
    """Frames and the key-padding mask for one batch, as `batch_loss` builds them."""
    frames = [rng.split(str(i)).normal(size=(n, d_in)).astype(dtype) for i, n in enumerate(lengths)]
    padded = np.zeros((len(lengths), max(lengths), d_in), dtype=dtype)
    pad = np.zeros((len(lengths), 1, max(lengths)), dtype=np.float32)
    for i, f in enumerate(frames):
        padded[i, : len(f)] = f
        pad[i, 0, len(f) :] = -1e9
    return frames, padded, pad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_head_batched_projector_equals_the_per_head_loop(dtype):
    proj = SpeechProjector(HEADS_PROJ, Rng(58), dtype=dtype)
    _scale_up_weights(proj.params, Rng(59))
    _, padded, pad = _padded_frames((3, 7, 5), HEADS_PROJ.d_in, dtype, Rng(60))
    got = proj.forward(Tensor(padded), train=False, pad_mask=pad)
    x = add(Tensor(padded), embedding_lookup(proj.params["wpe"], np.arange(padded.shape[1])))
    want = matmul(_per_head_layers(proj, x, Tensor(pad)), proj.params["out_proj"], transpose_b=True)
    np.testing.assert_array_equal(got.data, want.data)
    weights = Tensor(Rng(61).normal(size=got.shape).astype(dtype))
    _assert_same_grads(mean(mul(got, weights)), mean(mul(want, weights)), list(proj.params.values()))


def test_padded_projector_rows_match_each_unpadded_forward():
    # As many prompts as heads: a mask without its head axis would broadcast
    # the batch axis against the head axis here and raise no error.
    cfg = ProjectorConfig()
    assert cfg.n_heads == 4
    proj = SpeechProjector(cfg, Rng(62))
    _scale_up_weights(proj.params, Rng(63), std=0.1)
    frames, padded, pad = _padded_frames((5, 9, 2, 7), cfg.d_in, np.float32, Rng(64))
    batch = proj.forward(Tensor(padded), train=False, pad_mask=pad).data
    for i, f in enumerate(frames):
        alone = proj.forward(Tensor(f), train=False).data
        np.testing.assert_allclose(batch[i, : len(f)], alone, rtol=1e-5, atol=1e-6)


def test_projector_rejects_a_pad_mask_of_the_wrong_shape():
    proj = SpeechProjector(HEADS_PROJ, Rng(65))
    _, padded, pad = _padded_frames((3, 4), HEADS_PROJ.d_in, np.float32, Rng(66))
    for bad in (pad[:, 0], pad[:1], pad[:, :, :3], pad[:, :, None]):
        with pytest.raises(ShapeError, match="pad_mask"):
            proj.forward(Tensor(padded), train=False, pad_mask=bad)
