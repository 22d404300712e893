"""Model components: one pre-LN transformer stack, low-rank adapters,
frame averaging and one splice path for model inputs.

`Backbone` (the frozen decoder LM) and `SpeechProjector` (the speech
encoder) are the same pre-LN stack, `_Stack`, with different input tables,
masks and heads: the backbone adds token and position tables, a causal mask
and an LM head; the projector adds a frame-position table, an optional
key-padding mask, dropout and an output projection into the backbone's
embedding space. Every component, adapters included, holds its named
parameter tensors in `params` and shares one freeze/export/load path.

Each layer projects its queries, keys and values with one fused weight,
`wqkv` (3d, d), into rows of width 3d (the layout of GPT-2's `c_attn`),
and one `attention` op (head views, scores, mask, softmax, dropout and the
context product, with a hand-written backward) reads every head from those
rows and returns the context rows with the heads merged: a layer is 10
graph nodes (12 with the projector's residual dropouts). Inference can run
the backbone one new row at a time over a `KVCache`, which holds every
layer's fused rows fed so far together with the weights that produced
them, e.g. site weights with the adapters folded in by `fold_adapters`; a
cached step writes each layer's new rows after the cached ones, in place
and without copying them (`append_rows`), 11 nodes.

Weights are stored (d_out, d_in); every weight product is `linear(x, W)`,
x @ W^T as one 2-D product over the rows of x, whose backward computes no
gradient for a frozen weight (the backbone in stages A/B/C). Low-rank
pairs follow delta_W = (alpha/r) * B @ A with B zero-initialized, so a fresh
adapter is an exact no-op (Hu et al. 2021, arXiv 2106.09685). In training
and inference alike, adapters enter only as W + delta_W (`fold_adapters`),
one `add_low_rank` node per adapted weight; the q, k and v sites fold into
their row blocks of `wqkv`.

Inputs are spliced one way: `splice_grid` indexes a padded batch into the
token table followed by the batch's speech rows, and one lookup gathers
it (`trainer.batch_loss`); `splice_prompt` (decoding) is its one-row case.
Both take their speech rows from `SpeechProjector.speech_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, LengthError, ShapeError
from .rng import Rng
from .tensor import (
    Tensor,
    add,
    add_low_rank,
    append_rows,
    attention,
    concat,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    linear,
    masked_cross_entropy,  # noqa: F401  (perfbench wraps model.masked_cross_entropy)
    matmul,  # noqa: F401  (perfbench wraps model.matmul)
    parameter,
    scale,  # noqa: F401  (perfbench wraps model.scale)
    softmax,  # noqa: F401  (perfbench wraps model.softmax)
    tslice,
)

MAX_FRAMES = 64  # rows of the projector's learned frame-position table
LORA_SITES = ("attn_q", "attn_k", "attn_v", "attn_out", "ffn_up", "ffn_down")
_QKV_SITES = ("attn_q", "attn_k", "attn_v")  # the row blocks of `wqkv`, in order
_SITE_WEIGHT = {"attn_out": "wo", "ffn_up": "ffn_up", "ffn_down": "ffn_down"}


@dataclass(frozen=True)
class BackboneConfig:
    vocab_size: int = 96
    d_model: int = 64
    n_layers: int = 4
    n_heads: int = 4
    d_ffn: int = 128
    max_seq_len: int = 256

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ffn", "max_seq_len"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.d_model % self.n_heads:
            raise ConfigError("d_model must be divisible by n_heads")


@dataclass(frozen=True)
class ProjectorConfig:
    n_layers: int = 4
    n_heads: int = 4
    d_in: int = 32
    d_ffn: int = 64
    d_out: int = 64
    dropout: float = 0.1
    frame_avg_k: int = 3

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.frame_avg_k < 1:
            raise ConfigError("frame_avg_k must be >= 1")
        if self.d_in % self.n_heads:
            raise ConfigError("d_in must be divisible by n_heads")


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0
    # "Q/K values" read literally: V is not adapted unless "attn_v" is listed.
    targets: tuple[str, ...] = ("attn_q", "attn_k", "attn_out", "ffn_up", "ffn_down")

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if not 0 < self.alpha < np.inf:  # NaN fails too
            raise ConfigError("alpha must be positive and finite")
        unknown = set(self.targets) - set(LORA_SITES)
        if unknown:
            raise ConfigError(f"unknown adapter sites {sorted(unknown)}")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


class _Params:
    """Named parameter tensors in `params`, frozen, exported and loaded as one."""

    params: dict[str, Tensor]

    def param_dict(self) -> dict[str, Tensor]:
        return self.params

    def set_trainable(self, flag: bool) -> None:
        for t in self.params.values():
            t.requires_grad = flag

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace every parameter's values; names and shapes must match."""
        if set(arrays) != set(self.params):
            raise ShapeError(f"{type(self).__name__} checkpoint names do not match this configuration")
        for name, t in self.params.items():
            if arrays[name].shape != t.shape:
                raise ShapeError(f"{name}: expected {t.shape}, got {arrays[name].shape}")
            t.data = arrays[name].astype(t.data.dtype)


def _site_shapes(cfg: BackboneConfig) -> dict[str, tuple[int, int]]:
    d, f = cfg.d_model, cfg.d_ffn
    return {
        "attn_q": (d, d),
        "attn_k": (d, d),
        "attn_v": (d, d),
        "attn_out": (d, d),
        "ffn_up": (f, d),
        "ffn_down": (d, f),
    }


class LoraAdapters(_Params):
    """One low-rank pair per (layer, site) across all backbone layers, held in
    `params` as `layers.{layer}.{site}.A` (r, d_in) and `.B` (d_out, r), B
    zero at init."""

    def __init__(self, backbone_cfg: BackboneConfig, cfg: LoraConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        self.params = {}
        shapes = _site_shapes(backbone_cfg)
        for layer in range(backbone_cfg.n_layers):
            for site in sorted(cfg.targets):
                d_out, d_in = shapes[site]
                a = rng.split(f"{layer}", site).normal(size=(cfg.rank, d_in), scale=1.0 / np.sqrt(d_in))
                self.params[f"layers.{layer}.{site}.A"] = parameter(a.astype(dtype))
                self.params[f"layers.{layer}.{site}.B"] = parameter(np.zeros((d_out, cfg.rank), dtype=dtype))


def fold_adapters(params: dict[str, Tensor], lora: LoraAdapters | None) -> dict[str, Tensor]:
    """`params` with each adapted site weight W replaced by W + (alpha/r)*B@A.

    Adapters enter the model only this way, in training and inference: the
    folded weights need no adapter matmuls per row (LoRA's zero-latency
    merge, Hu et al. 2021, section 4.1) and pass gradients on to A and B.
    Each adapted weight is one `add_low_rank` node: the q, k and v sites
    are the row blocks 0, d and 2d of a layer's `wqkv`, and every other
    site is the one block of its own weight. The result is a new dict;
    `params` and `lora` are left untouched.
    """
    if lora is None:
        return params
    blocks: dict[str, list[tuple[int, Tensor, Tensor]]] = {}
    for key, a in lora.params.items():
        _, layer, site, part = key.split(".")
        if part == "A":
            if site in _QKV_SITES:
                name, row0 = f"layers.{layer}.wqkv", _QKV_SITES.index(site) * a.shape[1]
            else:
                name, row0 = f"layers.{layer}.{_SITE_WEIGHT[site]}", 0
            blocks.setdefault(name, []).append((row0, lora.params[f"layers.{layer}.{site}.B"], a))
    folded = dict(params)
    for name, site_blocks in blocks.items():
        folded[name] = add_low_rank(params[name], site_blocks, lora.cfg.scaling)
    return folded


@dataclass
class KVCache:
    """Every layer's fused q/k/v rows for the rows a backbone has been fed,
    each (..., S, 3d) over S rows so far, and the weights (`params`, all of
    the backbone's names) that made them. `attention` reads the keys and
    values from these rows; their query columns ride along unread.

    Each layer's rows live in one (..., capacity, 3d) buffer, sized to the
    sequence the cache serves (greedy decoding: the prompt plus its new
    tokens): a step writes its new rows after the old ones (`append_rows`)
    and copies none of them. Rows once written are never written again, so
    the rows a step returned keep their values. `Backbone.forward` rejects
    rows past the capacity before it writes any.

    A cache serves one sequence: its entries are valid only for `params`,
    so the weights travel with it instead of being stored on the model.
    """

    params: dict[str, Tensor]
    capacity: int
    rows: dict[int, Tensor] = field(default_factory=dict, init=False)
    _buffers: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    @property
    def length(self) -> int:
        return self.rows[0].shape[-2] if self.rows else 0

    def extend(self, layer: int, qkv: Tensor) -> Tensor:
        """Append the new fused rows in place; return all of them."""
        buf = self._buffers.get(layer)
        if buf is None:
            shape = qkv.shape[:-2] + (self.capacity, qkv.shape[-1])
            buf = self._buffers[layer] = np.empty(shape, dtype=qkv.dtype)
        self.rows[layer] = append_rows(buf, self.rows.get(layer), qkv)
        return self.rows[layer]


class _Stack(_Params):
    """Pre-LN transformer layers of width `d` plus a final layer norm.

    `params` holds, in order: the subclass's input tables, each layer's
    ln1/wqkv/wo/ln2/ffn_up/ffn_down, ln_f, then the subclass's head.
    Weight matrices start as N(0, 0.02^2) draws from `rng.split(name)`;
    `layers.{i}.wqkv` (3d, d) stacks the draws named `layers.{i}.wq`, `.wk`
    and `.wv`, in that order.
    """

    def __init__(self, d: int, d_ffn: int, n_layers: int, n_heads: int, tables: dict, head: tuple, rng: Rng, dtype):
        self.dtype = dtype
        self.n_layers = n_layers
        self.n_heads = n_heads
        self._inv = 1.0 / float(np.sqrt(d // n_heads))  # the attention scale, 1/sqrt(d/H)
        parts = ("ln1.g", "ln1.b", "wqkv", "wo", "ln2.g", "ln2.b", "ffn_up", "ffn_down")
        self._layer_names = [tuple(f"layers.{i}.{part}" for part in parts) for i in range(n_layers)]

        def draw(name, shape):
            return (rng.split(name).normal(size=shape) * 0.02).astype(dtype)

        def init(name, shape):
            return parameter(draw(name, shape))

        def norm(prefix):
            return {prefix + ".g": parameter(np.ones(d, dtype=dtype)), prefix + ".b": parameter(np.zeros(d, dtype=dtype))}

        self.params: dict[str, Tensor] = {name: init(name, shape) for name, shape in tables.items()}
        for i in range(n_layers):
            p = f"layers.{i}."
            self.params.update(norm(p + "ln1"))
            self.params[p + "wqkv"] = parameter(np.concatenate([draw(p + w, (d, d)) for w in ("wq", "wk", "wv")]))
            self.params[p + "wo"] = init(p + "wo", (d, d))
            self.params.update(norm(p + "ln2"))
            self.params[p + "ffn_up"] = init(p + "ffn_up", (d_ffn, d))
            self.params[p + "ffn_down"] = init(p + "ffn_down", (d, d_ffn))
        self.params.update(norm("ln_f"))
        name, shape = head
        self.params[name] = init(name, shape)

    def _layers(self, x: Tensor, mask: np.ndarray | None, p: dict[str, Tensor], drop: float = 0.0,
                rng: Rng | None = None, cache: KVCache | None = None) -> Tensor:
        """The pre-LN layers and final layer norm over (..., L, d) inputs.

        Every projection is `linear(x, W)`, x @ W^T over the weights `p`,
        into which any adapters are already folded. Each layer projects its
        queries, keys and values with one `linear` into fused (..., L, 3d)
        rows, and one `attention` op reads all `n_heads` heads from them and
        returns (..., L, d) context rows; `mask` is an additive mask that
        broadcasts against the (..., H, L, S) scores. Callers decide when
        dropout applies: given an `rng`, dropout at rate `drop` drawn from it
        hits attention probabilities (one draw over every head, inside
        `attention`) and both residual branches. With a `cache`, the new
        rows' fused rows are written after the cached ones in the cache's
        buffer, and the new rows attend over all of them. The parameter
        names of each layer and the attention scale are computed once, in
        `__init__`, not on every forward.
        """
        for i, (ln1_g, ln1_b, wqkv, wo, ln2_g, ln2_b, ffn_up, ffn_down) in enumerate(self._layer_names):
            r = rng.split(f"layer{i}") if rng is not None else None
            h = layer_norm(x, p[ln1_g], p[ln1_b])
            qkv = linear(h, p[wqkv])
            n_query = qkv.shape[-2]
            if cache is not None:
                qkv = cache.extend(i, qkv)
            a = attention(qkv, self.n_heads, n_query, mask, self._inv, drop, r.split("attn") if r is not None else None)
            a = linear(a, p[wo])
            if r is not None:
                a = dropout(a, drop, r.split("post-attn"))
            x = add(x, a)
            h = layer_norm(x, p[ln2_g], p[ln2_b])
            u = linear(gelu(linear(h, p[ffn_up])), p[ffn_down])
            if r is not None:
                u = dropout(u, drop, r.split("post-ffn"))
            x = add(x, u)
        return layer_norm(x, p["ln_f.g"], p["ln_f.b"])


class Backbone(_Stack):
    """Decoder-only pre-LN transformer with learned absolute positions."""

    def __init__(self, cfg: BackboneConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        d = cfg.d_model
        tables = {"wte": (cfg.vocab_size, d), "wpe": (cfg.max_seq_len, d)}
        super().__init__(d, cfg.d_ffn, cfg.n_layers, cfg.n_heads, tables, ("lm_head", (cfg.vocab_size, d)), rng, dtype)
        self._masks: dict[tuple[int, int], np.ndarray] = {}

    def _causal_mask(self, L: int, past: int) -> np.ndarray:
        """(L, past + L) additive mask: row i sees keys up to past + i."""
        m = self._masks.get((L, past))
        if m is None:
            m = self._masks[(L, past)] = np.triu(np.full((L, past + L), -1e9, dtype=np.float32), k=past + 1)
        return m

    def forward(self, emb: Tensor, positions, lora: LoraAdapters | None = None, cache: KVCache | None = None,
                rows=None) -> Tensor:
        """emb: (..., L, d_model) content embeddings; returns (..., L, vocab) logits.

        `lora` is folded into the backbone's weights for this call. With a
        `cache`, the forward runs over `cache.params`, which already hold any
        adapters, and `emb` holds the rows that follow the `cache.length`
        rows already fed: they attend over those rows' cached keys and
        values, and their own are appended. A single row needs no mask.
        `rows` indexes the leading axes of `emb`, e.g. the (batch, position)
        arrays of `np.nonzero(label_mask)`: given it, only those rows, picked
        after the final layer norm, get logits, (N, vocab) for N indexed rows.
        """
        if emb.shape[-1] != self.cfg.d_model:
            raise ShapeError(f"expected embeddings of width {self.cfg.d_model}, got {emb.shape}")
        L = emb.shape[-2]
        past = 0 if cache is None else cache.length
        if past + L > self.cfg.max_seq_len:
            raise LengthError(f"sequence length {past + L} exceeds max_seq_len {self.cfg.max_seq_len}")
        if cache is not None and past + L > cache.capacity:
            raise LengthError(f"sequence length {past + L} exceeds the cache's capacity {cache.capacity}")
        if cache is not None and lora is not None:
            raise ContractViolation("cache.params already hold the adapters; fold lora when building the cache")
        p = cache.params if cache is not None else fold_adapters(self.params, lora)
        x = add(emb, embedding_lookup(p["wpe"], np.asarray(positions, dtype=np.int64)))
        x = self._layers(x, None if L == 1 else self._causal_mask(L, past), p, cache=cache)
        if rows is not None:
            x = tslice(x, rows)
        return linear(x, p["lm_head"])


class SpeechProjector(_Stack):
    """Pre-LN bidirectional transformer encoder mapping averaged speech
    frames into the backbone's embedding space; it pads and masks its own
    batches of frame sequences (`speech_rows`).

    A learned positional table is added to the input frames; without it the
    encoder is near permutation-equivariant and cannot shape its outputs by
    sequence position, which the downstream content-reading circuits need.
    """

    def __init__(self, cfg: ProjectorConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        d = cfg.d_in
        tables = {"wpe": (MAX_FRAMES, d)}
        super().__init__(d, cfg.d_ffn, cfg.n_layers, cfg.n_heads, tables, ("out_proj", (cfg.d_out, d)), rng, dtype)

    def forward(self, frames: Tensor, train: bool = False, rng: Rng | None = None, pad_mask=None) -> Tensor:
        """frames: (..., M, d_in) averaged frames; returns (..., M, d_out).

        pad_mask: optional additive key-padding mask of shape
        frames.shape[:-2] + (1, M), with large negative values at padded key
        positions; it gains a head axis, (..., 1, 1, M), before it meets the
        (..., H, M, M) attention scores.
        """
        M = frames.shape[-2]
        if frames.shape[-1] != self.cfg.d_in:
            raise ShapeError(f"expected frames of width {self.cfg.d_in}, got {frames.shape}")
        if M > MAX_FRAMES:
            raise LengthError(f"{M} frames exceed MAX_FRAMES {MAX_FRAMES}")
        if train and self.cfg.dropout > 0 and rng is None:
            raise ContractViolation("training-mode projector needs an rng for dropout")
        mask = None
        if pad_mask is not None:
            pad_mask = np.asarray(pad_mask)
            if pad_mask.shape != frames.shape[:-2] + (1, M):
                raise ShapeError(f"pad_mask must be {frames.shape[:-2] + (1, M)} for frames {frames.shape}, got {pad_mask.shape}")
            mask = pad_mask[..., None, :, :]
        x = add(frames, embedding_lookup(self.params["wpe"], np.arange(M, dtype=np.int64)))
        x = self._layers(x, mask, self.params, drop=self.cfg.dropout, rng=rng if train and self.cfg.dropout > 0 else None)
        return linear(x, self.params["out_proj"])

    def speech_rows(self, frames: list[np.ndarray], train: bool = False, rng: Rng | None = None) -> Tensor:
        """The output rows of each (M_i, d_in) frame sequence, in order, as
        (sum of M_i, d_out): one `forward` over the sequences zero-padded in
        this projector's dtype, with a (B, 1, M) key mask only when their
        lengths differ, then one slice of the valid rows."""
        if not frames:
            raise ContractViolation("speech_rows needs at least one frame sequence")
        counts = [f.shape[0] for f in frames]
        batch = np.zeros((len(frames), max(counts), frames[0].shape[-1]), dtype=self.dtype)  # `forward` checks the width
        pad = np.zeros((len(frames), 1, max(counts)), dtype=np.float32)
        for i, f in enumerate(frames):
            batch[i, : counts[i]] = f
            pad[i, 0, counts[i] :] = -1e9
        out = self.forward(Tensor(batch), train=train, rng=rng, pad_mask=pad if len(set(counts)) > 1 else None)
        return tslice(out, (np.repeat(np.arange(len(frames)), counts), np.concatenate([np.arange(m) for m in counts])))


def average_frames(frames: np.ndarray, k: int) -> np.ndarray:
    """Mean-pool every k consecutive rows; the final partial group is averaged
    over its actual size. Output has ceil(T/k) rows."""
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ContractViolation(f"expected a non-empty (T, d) frame matrix, got {frames.shape}")
    if k < 1:
        raise ContractViolation("k must be >= 1")
    T = frames.shape[0]
    full = T // k * k
    groups = frames[:full].reshape(-1, k, frames.shape[1]).mean(axis=1)
    if full == T:
        return groups
    return np.concatenate([groups, frames[full:].mean(axis=0, keepdims=True)])


def splice_grid(rows, vocab_size: int, max_seq_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B, L) gather index, token ids and loss mask of a padded batch.

    Each row is (prefix ids, content, suffix ids, target ids), where the
    content is token ids or the number of speech rows it holds. The index
    addresses `concat([wte, speech_rows])`: speech row j of the batch,
    counted row by row, is table row `vocab_size + j`. `token_ids` is -1 at
    speech rows and at padding; `loss_mask` is True exactly at the targets.
    Padding follows every real row and gathers table row 0, which a causal
    model's real positions never see.
    """
    if not rows:
        raise ContractViolation("splice_grid needs at least one row")
    seqs = []  # (token ids, gather index, number of targets) per row
    speech_row = vocab_size
    for prefix, content, suffix, targets in rows:
        if isinstance(content, int):
            content_ids, content_index = [-1] * content, range(speech_row, speech_row + content)
            speech_row += content
        else:
            content_ids = content_index = content
        tail = [*suffix, *targets]
        seqs.append(([*prefix, *content_ids, *tail], [*prefix, *content_index, *tail], len(targets)))
    L = max(len(ids) for ids, _, _ in seqs)
    if L > max_seq_len:
        raise LengthError(f"spliced length {L} exceeds max_seq_len {max_seq_len}")
    shape = (len(seqs), L)
    index, token_ids, loss_mask = np.zeros(shape, np.int64), np.full(shape, -1, np.int64), np.zeros(shape, bool)
    for b, (ids, gather, n_targets) in enumerate(seqs):
        n = len(ids)
        token_ids[b, :n], index[b, :n] = ids, gather
        loss_mask[b, n - n_targets : n] = True
    return index, token_ids, loss_mask


@dataclass
class SplicedPrompt:
    """One model-ready sequence: embeddings with speech rows spliced in."""

    embeddings: Tensor  # (L, d_model)
    loss_mask: np.ndarray  # (L,) bool, True exactly at target positions
    positions: np.ndarray  # (L,) int
    token_ids: np.ndarray  # (L,) int, -1 at speech rows


def splice_prompt(
    wte: Tensor,
    prefix_tokens,
    speech_embeddings: Tensor | None,
    suffix_tokens,
    target_tokens,
    max_seq_len: int,
) -> SplicedPrompt:
    """embed(prefix) + speech + embed(suffix) + embed(targets): the one-row
    case of `splice_grid`, gathered with one lookup."""
    m = 0 if speech_embeddings is None else speech_embeddings.shape[0]
    index, token_ids, loss_mask = splice_grid([(prefix_tokens, m, suffix_tokens, target_tokens)], wte.shape[0], max_seq_len)
    table = wte if speech_embeddings is None else concat([wte, speech_embeddings], axis=0)
    return SplicedPrompt(
        embeddings=embedding_lookup(table, index[0]),
        loss_mask=loss_mask[0],
        positions=np.arange(index.shape[1], dtype=np.int64),
        token_ids=token_ids[0],
    )
