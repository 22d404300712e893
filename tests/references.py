"""Reference ops, checks and accessors that only the tests use.

`mul` and `mean` build graph nodes the way the ops in `mmadapt.tensor` do,
so test losses can reduce any output to a scalar; `finite_diff_check`
compares analytic gradients with central differences. `empirical_ratios`
and `check_interleaving` read a sampler schedule back. `embed`,
`corpus_split` and `effective_question_theme` are shorthands for reading a
backbone, a corpus and an example. `per_example_batch_loss` is the batch
loss assembled example by example, the definition the one-grid splice in
`mmadapt.trainer.batch_loss` must match. `translate_by_symbol` and
`frames_by_repeat_tile` are the token-by-token translation and the
repeat-and-tile frame synthesis that `Vocab.translate`'s tables and
`synthesize_frames`' broadcast must match bit for bit.
`average_frames_by_group` is the group-by-group mean pooling that
`average_frames`' reshape must match bit for bit, and `int_key` is the
128-bit int seed that an `Rng`'s uint32 key words must equal.
`linear_by_matmul` is the batched weight product `linear` replaced, the
reference it must match within float32 rounding; `PerTensorAdamW` is the
out-of-place, per-tensor AdamW update the in-place flat step must match
bit for bit. `attention_by_chain`, `mean_layer_norm` and
`embedding_backward_by_add_at` are the attention chain, the layer norm and
the embedding scatter that `attention`, `layer_norm` and `embedding_lookup`
replaced, each matched within float32 rounding; `attention_by_head_slices`
runs that chain on head slices cut from fused q/k/v rows, the layout the
fused `attention` reads; `out_of_place_gelu` is the
gelu the in-place chain must match bit for bit. `full_grid_text_loss` is
the text batch loss with logits at every grid position, which the
target-row head must match within float32 rounding. `fold_by_chain` is
the adapter fold as a chain of `matmul`, `scale`, `concat` and `add` nodes
(with a zero block for an unadapted q, k or v site), which the one
`add_low_rank` node per weight in `fold_adapters` must match bit for bit.
"""

import hashlib

import numpy as np

from mmadapt.corpus import AcousticCode, Corpus, CorpusConfig, Example
from mmadapt.errors import ContractViolation
from mmadapt.model import Backbone, splice_grid
from mmadapt.rng import Rng
from mmadapt.sampler import TEXT_EQUIVALENT, BatchSchedule
from mmadapt.trainer import BETAS, EPS
from mmadapt.tensor import (
    Tensor,
    _as_tensor,
    _make_node,
    _unbroadcast,
    add,
    concat,
    dropout,
    embedding_lookup,
    grad,
    masked_cross_entropy,
    matmul,
    scale,
    softmax,
    stack,
    tslice,
)
from mmadapt.vocab import Vocab


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    y = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make_node("elementwise-product", y, (a, b), backward)


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


def empirical_ratios(schedule: BatchSchedule) -> dict[str, float]:
    """Task frequencies over the steps' primary entries."""
    primary = [step[0] for step in schedule.steps]
    if not primary:
        raise ContractViolation("schedule has no primary entries")
    counts: dict[str, int] = {}
    for e in primary:
        counts[e.task] = counts.get(e.task, 0) + 1
    return {task: c / len(primary) for task, c in counts.items()}


def check_interleaving(schedule: BatchSchedule) -> bool:
    """Linear scan of the pairing rule; True when every speech entry with a
    text equivalent is immediately followed by the matching text entry."""
    entries = schedule.entries
    i = 0
    while i < len(entries):
        e = entries[i]
        if e.interleaved:
            return False  # interleaved entry without a preceding speech draw
        if e.modality == "speech" and e.task in TEXT_EQUIVALENT:
            nxt = entries[i + 1] if i + 1 < len(entries) else None
            if (
                nxt is None
                or not nxt.interleaved
                or nxt.task != TEXT_EQUIVALENT[e.task]
                or nxt.modality != "text"
                or (nxt.language, nxt.validity) != (e.language, e.validity)
            ):
                return False
            i += 2
            continue
        i += 1
    return True


def embed(backbone: Backbone, token_ids) -> Tensor:
    """The backbone's token embeddings of `token_ids`, without positions."""
    return embedding_lookup(backbone.params["wte"], np.asarray(token_ids, dtype=np.int64))


def corpus_split(corpus: Corpus, task: str, language: str, validity: str = "valid", part: str = "train") -> list[Example]:
    return corpus.splits[(task, language, validity, part)]


def effective_question_theme(example: Example) -> int:
    """The theme of the example's question: its own unless the invalid split swapped it."""
    return example.theme_id if example.question_theme_id is None else example.question_theme_id


def translate_by_symbol(vocab: Vocab, tokens, src: str, dst: str) -> tuple[int, ...]:
    """Map each lexical token of `src` to its symbol, then to `dst`'s token
    for that symbol; every other token passes through."""
    a, b = vocab.lang(src), vocab.lang(dst)
    out = []
    for t in tokens:
        if t in a.lexical_range:
            out.append(b.token_for_symbol(a.symbol_for_token(t)))
        else:
            out.append(int(t))
    return tuple(out)


def frames_by_repeat_tile(tokens, acoustic: AcousticCode, cfg: CorpusConfig, rng: Rng) -> np.ndarray:
    """k_up frames per token: each code row repeated k_up times, plus the
    offsets tiled once per token, plus gaussian noise."""
    tokens = list(tokens)
    base = acoustic.code[np.asarray(tokens)]
    frames = np.repeat(base, cfg.k_up, axis=0) + np.tile(acoustic.offsets, (len(tokens), 1))
    if cfg.noise_sigma > 0:
        frames = frames + cfg.noise_sigma * rng.normal(size=frames.shape)
    return frames.astype(np.float32)


def average_frames_by_group(frames: np.ndarray, k: int) -> np.ndarray:
    """Mean of every k consecutive rows, one group at a time; the final
    partial group is averaged over its actual size."""
    T = frames.shape[0]
    n_groups = int(np.ceil(T / k))
    out = np.empty((n_groups, frames.shape[1]), dtype=frames.dtype)
    for g in range(n_groups):
        out[g] = frames[g * k : min((g + 1) * k, T)].mean(axis=0)
    return out


def int_key(seed: int, path: tuple[str, ...]) -> int:
    """The first 16 bytes of the path's SHA-256, read as a little-endian int."""
    h = hashlib.sha256()
    h.update(str(int(seed)).encode())
    for label in path:
        h.update(b"/")
        h.update(label.encode())
    return int.from_bytes(h.digest()[:16], "little")


def _splice_pieces(wte: Tensor, prefix, block: Tensor | None, tail) -> Tensor:
    """embed(prefix) + block + embed(tail), one lookup per token piece."""
    pieces = []
    if prefix:
        pieces.append(embedding_lookup(wte, np.asarray(prefix, dtype=np.int64)))
    if block is not None and block.shape[0]:
        pieces.append(block)
    if tail:
        pieces.append(embedding_lookup(wte, np.asarray(tail, dtype=np.int64)))
    return pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)


def per_example_batch_loss(backbone, prompts, projector=None, adapters=None, train=False, rng=None, content_noise=0.0):
    """`batch_loss` assembled example by example: each sequence is spliced
    from its own lookups (a noisy text content block, or a slice of the
    projector output, between them), zero-padded and stacked; the returned
    loss's parent is the logits of the rows that predict a target."""
    wte, d, dtype = backbone.params["wte"], backbone.cfg.d_model, backbone.dtype
    speech_out = None
    if prompts[0].frames is not None:
        counts = [p.frames.shape[0] for p in prompts]
        fr = np.zeros((len(prompts), max(counts), projector.cfg.d_in), dtype=projector.dtype)
        pad = np.zeros((len(prompts), 1, max(counts)), dtype=np.float32)
        for i, p in enumerate(prompts):
            fr[i, : counts[i]] = p.frames
            pad[i, 0, counts[i] :] = -1e9
        speech_out = projector.forward(Tensor(fr), train=train, rng=rng.split("projector") if rng is not None else None,
                                       pad_mask=pad if len(set(counts)) > 1 else None)
    noisy = train and content_noise > 0.0 and speech_out is None
    seqs, ids, masks = [], [], []
    for i, p in enumerate(prompts):
        prefix, block = list(p.prefix_tokens), None
        if speech_out is not None:
            block = tslice(speech_out, (i, slice(0, counts[i]), slice(None)))
        elif noisy:
            clean = embedding_lookup(wte, np.asarray(p.content_tokens, dtype=np.int64))
            noise = content_noise * rng.split("noise", p.id).normal(size=(len(p.content_tokens), d))
            block = add(clean, Tensor(noise.astype(dtype)))
        else:
            prefix += list(p.content_tokens)
        tail = list(p.suffix_tokens) + list(p.target_tokens)
        m = 0 if block is None else block.shape[0]
        seqs.append(_splice_pieces(wte, prefix, block, tail))
        ids.append(prefix + [-1] * m + tail)
        masks.append([False] * (len(prefix) + m + len(p.suffix_tokens)) + [True] * len(p.target_tokens))
    L = max(len(t) for t in ids)
    padded = [e if e.shape[0] == L else concat([e, Tensor(np.zeros((L - e.shape[0], d), dtype=dtype))], axis=0) for e in seqs]
    token_ids = np.array([t + [-1] * (L - len(t)) for t in ids], dtype=np.int64)
    mask = np.array([m + [False] * (L - len(m)) for m in masks])
    labels = np.zeros_like(token_ids)
    labels[:, :-1] = token_ids[:, 1:]
    label_mask = np.zeros_like(mask)
    label_mask[:, :-1] = mask[:, 1:]
    rows = np.nonzero(label_mask)
    logits = backbone.forward(stack(padded, axis=0), np.arange(L), lora=adapters, rows=rows)
    return masked_cross_entropy(logits, labels[rows], np.ones(len(rows[0]), dtype=bool))


def linear_by_matmul(x: Tensor, w: Tensor) -> Tensor:
    """x @ w^T as a batched product against the transposed weight, one small
    product per leading index, whose backward computes both gradients."""
    return matmul(x, w, transpose_b=True)


def fold_by_chain(params: dict, lora) -> dict:
    """`params` with each adapted weight W replaced by W + (alpha/r) * B @ A,
    one `matmul` and one `scale` per site; a layer's `wqkv` adds the concat
    of its q, k and v deltas, a zero block standing in for a missing one."""
    folded = dict(params)
    qkv: dict[str, dict[str, Tensor]] = {}
    for key, a in lora.params.items():
        _, layer, site, part = key.split(".")
        if part == "A":
            delta = scale(matmul(lora.params[f"layers.{layer}.{site}.B"], a), lora.cfg.scaling)
            if site in ("attn_q", "attn_k", "attn_v"):
                qkv.setdefault(layer, {})[site] = delta
            else:
                name = f"layers.{layer}.{'wo' if site == 'attn_out' else site}"  # ffn_up, ffn_down: their own names
                folded[name] = add(params[name], delta)
    for layer, deltas in qkv.items():
        w = params[f"layers.{layer}.wqkv"]
        zeros = Tensor(np.zeros((w.shape[1], w.shape[1]), dtype=w.dtype))
        blocks = [deltas.get(site, zeros) for site in ("attn_q", "attn_k", "attn_v")]
        folded[f"layers.{layer}.wqkv"] = add(w, concat(blocks, axis=0))
    return folded


def attention_by_chain(q: Tensor, k: Tensor, v: Tensor, mask, inv: float, drop: float, rng) -> Tensor:
    """softmax(inv * q @ k^T + mask), dropped out when given an `rng`, @ v:
    one graph node per step."""
    scores = scale(matmul(q, k, transpose_b=True), inv)
    if mask is not None:
        scores = add(scores, Tensor(mask))
    probs = softmax(scores)
    if rng is not None:
        probs = dropout(probs, drop, rng)
    return matmul(probs, v)


def attention_by_head_slices(qkv: Tensor, n_heads: int, n_query: int, mask, inv: float, drop: float, rng) -> Tensor:
    """`attention_by_chain` over q, k and v cut head by head from fused rows
    (..., S, 3d) with `tslice` and stacked into (..., H, rows, d/H); the
    context heads are sliced back out and concatenated into (..., n_query, d)."""
    S, d = qkv.shape[-2], qkv.shape[-1] // 3
    dh = d // n_heads

    def heads(block: int, rows: slice) -> Tensor:
        cols = [slice(block * d + h * dh, block * d + (h + 1) * dh) for h in range(n_heads)]
        return stack([tslice(qkv, (Ellipsis, rows, c)) for c in cols], axis=-3)

    out = attention_by_chain(heads(0, slice(S - n_query, S)), heads(1, slice(None)), heads(2, slice(None)),
                             mask, inv, drop, rng)
    return concat([tslice(out, (Ellipsis, h, slice(None), slice(None))) for h in range(n_heads)], axis=-1)


def mean_layer_norm(x, gain, bias, g, eps=1e-5):
    """Layer norm's output and its input, gain and bias gradients, written
    with `.mean` and `.sum`."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    n = x.shape[-1]
    dxhat = g * gain
    dx = (inv / n) * (n * dxhat - dxhat.sum(axis=-1, keepdims=True) - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True))
    rows = tuple(range(x.ndim - 1))
    return xhat * gain + bias, dx, (g * xhat).sum(axis=rows), g.sum(axis=rows)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def out_of_place_gelu(xd, g):
    """tanh-GELU and its input gradient, one new array per operation."""
    u = _GELU_C * (xd + 0.044715 * (xd * xd * xd))
    t = np.tanh(u)
    du = _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
    dy = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du
    return 0.5 * xd * (1.0 + t), g * dy


def embedding_backward_by_add_at(table_shape, ids, g):
    """The table gradient of a lookup: each gradient row added onto its id's
    row, one row at a time in order."""
    buf = np.zeros(table_shape, dtype=g.dtype)
    np.add.at(buf, np.asarray(ids).reshape(-1), g.reshape(-1, table_shape[-1]))
    return buf


def full_grid_text_loss(backbone, prompts, adapters=None):
    """`batch_loss` on a text batch without training noise, with logits at
    every grid position and the loss masked to the targets."""
    rows = [(p.prefix_tokens, p.content_tokens, p.suffix_tokens, p.target_tokens) for p in prompts]
    index, ids, mask = splice_grid(rows, backbone.cfg.vocab_size, backbone.cfg.max_seq_len)
    logits = backbone.forward(embedding_lookup(backbone.params["wte"], index), np.arange(index.shape[1]), lora=adapters)
    label_mask = np.zeros_like(mask)
    label_mask[:, :-1] = mask[:, 1:]
    return masked_cross_entropy(logits, np.roll(ids, -1, axis=1), label_mask)


class PerTensorAdamW:
    """AdamW with zero weight decay, one tensor at a time, each update
    written out of place: w - lr * (m_hat / (sqrt(v_hat) + EPS))."""

    def __init__(self, arrays: dict, lr: float):
        self.arrays = {k: a.copy() for k, a in arrays.items()}
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.v = {k: np.zeros_like(a) for k, a in arrays.items()}

    def step(self, grads: dict) -> float:
        self.t += 1
        step, lr = self.t, self.lr
        b1, b2 = BETAS
        for name, p in self.arrays.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            m_hat = m / (1 - b1**step)
            v_hat = v / (1 - b2**step)
            self.arrays[name] = p - lr * (m_hat / (np.sqrt(v_hat) + EPS))
        return lr
