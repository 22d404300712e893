"""Model components: one pre-LN transformer stack, low-rank adapters,
frame averaging and prompt splicing.

`Backbone` (the frozen decoder LM) and `SpeechProjector` (the speech
encoder) are the same pre-LN stack, `_Stack`, with different input tables,
masks and heads: the backbone adds token and position tables, a causal mask
and an LM head; the projector adds a frame-position table, an optional
key-padding mask, dropout and an output projection into the backbone's
embedding space. Every component, adapters included, holds its named
parameter tensors in `params` and shares one freeze/export/load path.

Inference can run the backbone one new row at a time over a `KVCache`,
which holds every layer's keys and values for the rows fed so far together
with the weights that produced them, e.g. site weights with the adapters
folded in by `fold_adapters`.

Weights are stored (d_out, d_in); forward passes compute x @ W^T. Low-rank
pairs follow delta_W = (alpha/r) * B @ A with B zero-initialized, so a fresh
adapter is an exact no-op (Hu et al. 2021, arXiv 2106.09685).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, LengthError, ShapeError
from .rng import Rng
from .tensor import (
    Tensor,
    add,
    concat,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    masked_cross_entropy,  # noqa: F401  (loss op re-exported alongside the model)
    matmul,
    parameter,
    scale,
    softmax,
    tslice,
)

LORA_SITES = ("attn_q", "attn_k", "attn_v", "attn_out", "ffn_up", "ffn_down")
_SITE_WEIGHT = {"attn_q": "wq", "attn_k": "wk", "attn_v": "wv", "attn_out": "wo", "ffn_up": "ffn_up", "ffn_down": "ffn_down"}


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
    max_frames: int = 64  # learned positional table size

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.frame_avg_k < 1:
            raise ConfigError("frame_avg_k must be >= 1")
        if self.d_in % self.n_heads:
            raise ConfigError("d_in must be divisible by n_heads")
        if self.max_frames < 1:
            raise ConfigError("max_frames must be positive")


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0
    # "Q/K values" read literally: V is not adapted unless "attn_v" is listed.
    targets: tuple[str, ...] = ("attn_q", "attn_k", "attn_out", "ffn_up", "ffn_down")

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.alpha <= 0:
            raise ConfigError("alpha must be positive")
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


@dataclass
class LoraPair:
    A: Tensor  # (r, d_in)
    B: Tensor  # (d_out, r), zero at init


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
    """One low-rank pair per (layer, site) across all backbone layers."""

    def __init__(self, backbone_cfg: BackboneConfig, cfg: LoraConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        self.pairs: dict[tuple[int, str], LoraPair] = {}
        shapes = _site_shapes(backbone_cfg)
        for layer in range(backbone_cfg.n_layers):
            for site in cfg.targets:
                d_out, d_in = shapes[site]
                a = rng.split(f"{layer}", site).normal(size=(cfg.rank, d_in), scale=1.0 / np.sqrt(d_in))
                self.pairs[(layer, site)] = LoraPair(
                    A=parameter(a.astype(dtype)),
                    B=parameter(np.zeros((d_out, cfg.rank), dtype=dtype)),
                )
        self.params = {}
        for (layer, site), pair in sorted(self.pairs.items()):
            self.params[f"layers.{layer}.{site}.A"] = pair.A
            self.params[f"layers.{layer}.{site}.B"] = pair.B


def _linear(x: Tensor, W: Tensor, lora: "LoraAdapters | None", key: tuple[int, str]) -> Tensor:
    y = matmul(x, W, transpose_b=True)
    if lora is not None and key in lora.pairs:
        pair = lora.pairs[key]
        delta = matmul(matmul(x, pair.A, transpose_b=True), pair.B, transpose_b=True)
        y = add(y, scale(delta, lora.cfg.scaling))
    return y


def fold_adapters(params: dict[str, Tensor], lora: LoraAdapters | None) -> dict[str, Tensor]:
    """`params` with each adapted site weight W replaced by W + (alpha/r)*B@A.

    The folded weights give the adapted outputs with no adapter matmuls per
    row (LoRA's zero-latency merge, Hu et al. 2021, section 4.1). The result
    is a new dict; `params` and `lora` are left untouched.
    """
    if lora is None:
        return params
    folded = dict(params)
    for (layer, site), pair in lora.pairs.items():
        name = f"layers.{layer}.{_SITE_WEIGHT[site]}"
        folded[name] = add(params[name], scale(matmul(pair.B, pair.A), lora.cfg.scaling))
    return folded


@dataclass
class KVCache:
    """Every layer's keys and values for the rows a backbone has been fed,
    and the weights (`params`, all of the backbone's names) that made them.

    A cache serves one sequence: its entries are valid only for `params`,
    so the weights travel with it instead of being stored on the model.
    """

    params: dict[str, Tensor]
    kv: dict[int, tuple[Tensor, Tensor]] = field(default_factory=dict)

    @property
    def length(self) -> int:
        return self.kv[0][0].shape[-2] if self.kv else 0

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append the new rows' keys and values; return all of them."""
        if layer in self.kv:
            old_k, old_v = self.kv[layer]
            k, v = concat([old_k, k], axis=-2), concat([old_v, v], axis=-2)
        self.kv[layer] = (k, v)
        return k, v


def _last_axis_slice(t: Tensor, lo: int, hi: int) -> Tensor:
    return tslice(t, (Ellipsis, slice(lo, hi)))


def _multi_head_attention(q, k, v, n_heads, head_dim, attn_mask, drop_p=0.0, rng=None, train=False):
    heads = []
    inv = 1.0 / float(np.sqrt(head_dim))
    for h in range(n_heads):
        lo, hi = h * head_dim, (h + 1) * head_dim
        qh, kh, vh = (_last_axis_slice(t, lo, hi) for t in (q, k, v))
        scores = scale(matmul(qh, kh, transpose_b=True), inv)
        if attn_mask is not None:
            scores = add(scores, attn_mask)
        probs = softmax(scores)
        if drop_p > 0 and train:
            probs = dropout(probs, drop_p, rng.split(f"attn{h}"), train)
        heads.append(matmul(probs, vh))
    return concat(heads, axis=-1)


class _Stack(_Params):
    """Pre-LN transformer layers of width `d` plus a final layer norm.

    `params` holds, in order: the subclass's input tables, each layer's
    ln1/wq/wk/wv/wo/ln2/ffn_up/ffn_down, ln_f, then the subclass's head.
    Weight matrices start as N(0, 0.02^2) draws from `rng.split(name)`.
    """

    def __init__(self, d: int, d_ffn: int, n_layers: int, n_heads: int, tables: dict, head: tuple, rng: Rng, dtype):
        self.dtype = dtype
        self.n_layers = n_layers
        self.n_heads = n_heads

        def init(name, shape):
            return parameter((rng.split(name).normal(size=shape) * 0.02).astype(dtype))

        def norm(prefix):
            return {prefix + ".g": parameter(np.ones(d, dtype=dtype)), prefix + ".b": parameter(np.zeros(d, dtype=dtype))}

        self.params: dict[str, Tensor] = {name: init(name, shape) for name, shape in tables.items()}
        for i in range(n_layers):
            p = f"layers.{i}."
            self.params.update(norm(p + "ln1"))
            for w in ("wq", "wk", "wv", "wo"):
                self.params[p + w] = init(p + w, (d, d))
            self.params.update(norm(p + "ln2"))
            self.params[p + "ffn_up"] = init(p + "ffn_up", (d_ffn, d))
            self.params[p + "ffn_down"] = init(p + "ffn_down", (d, d_ffn))
        self.params.update(norm("ln_f"))
        name, shape = head
        self.params[name] = init(name, shape)

    def _layers(self, x: Tensor, mask: Tensor | None, lora: LoraAdapters | None = None, drop: float = 0.0,
                rng: Rng | None = None, train: bool = False, cache: KVCache | None = None) -> Tensor:
        """The pre-LN layers and final layer norm over (..., L, d) inputs.

        `lora` adds its low-rank deltas at every projection; `drop` > 0 in
        training applies dropout to attention probabilities and to both
        residual branches, drawn from `rng`. With a `cache`, the layers use
        `cache.params` and attend over the cached keys and values followed
        by the new rows' own, which they append to the cache.
        """
        p = self.params if cache is None else cache.params
        head_dim = x.shape[-1] // self.n_heads
        for i in range(self.n_layers):
            pre = f"layers.{i}."
            r = rng.split(f"layer{i}") if (train and drop > 0) else None
            h = layer_norm(x, p[pre + "ln1.g"], p[pre + "ln1.b"])
            q = _linear(h, p[pre + "wq"], lora, (i, "attn_q"))
            k = _linear(h, p[pre + "wk"], lora, (i, "attn_k"))
            v = _linear(h, p[pre + "wv"], lora, (i, "attn_v"))
            if cache is not None:
                k, v = cache.extend(i, k, v)
            ctx = _multi_head_attention(q, k, v, self.n_heads, head_dim, mask, drop, r, train)
            a = _linear(ctx, p[pre + "wo"], lora, (i, "attn_out"))
            if r is not None:
                a = dropout(a, drop, r.split("post-attn"), train)
            x = add(x, a)
            h = layer_norm(x, p[pre + "ln2.g"], p[pre + "ln2.b"])
            u = gelu(_linear(h, p[pre + "ffn_up"], lora, (i, "ffn_up")))
            u = _linear(u, p[pre + "ffn_down"], lora, (i, "ffn_down"))
            if r is not None:
                u = dropout(u, drop, r.split("post-ffn"), train)
            x = add(x, u)
        return layer_norm(x, p["ln_f.g"], p["ln_f.b"])


class Backbone(_Stack):
    """Decoder-only pre-LN transformer with learned absolute positions."""

    def __init__(self, cfg: BackboneConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        d = cfg.d_model
        tables = {"wte": (cfg.vocab_size, d), "wpe": (cfg.max_seq_len, d)}
        super().__init__(d, cfg.d_ffn, cfg.n_layers, cfg.n_heads, tables, ("lm_head", (cfg.vocab_size, d)), rng, dtype)
        self._masks: dict[int, Tensor] = {}

    def embed(self, token_ids) -> Tensor:
        return embedding_lookup(self.params["wte"], np.asarray(token_ids, dtype=np.int64))

    def _causal_mask(self, L: int, past: int) -> Tensor:
        """(L, past + L) additive mask: row i sees keys up to past + i."""
        m = self._masks.get((L, past))
        if m is None:
            mask = np.triu(np.full((L, past + L), -1e9, dtype=np.float32), k=past + 1)
            m = self._masks[(L, past)] = Tensor(mask)
        return m

    def forward(self, emb: Tensor, positions, lora: LoraAdapters | None = None, cache: KVCache | None = None) -> Tensor:
        """emb: (..., L, d_model) content embeddings; returns (..., L, vocab) logits.

        With a `cache`, `emb` holds the rows that follow the `cache.length`
        rows already fed: they attend over those rows' cached keys and
        values, the forward runs over `cache.params`, and the new rows' keys
        and values are appended. A single row needs no mask.
        """
        if emb.shape[-1] != self.cfg.d_model:
            raise ShapeError(f"expected embeddings of width {self.cfg.d_model}, got {emb.shape}")
        L = emb.shape[-2]
        past = 0 if cache is None else cache.length
        if past + L > self.cfg.max_seq_len:
            raise LengthError(f"sequence length {past + L} exceeds max_seq_len {self.cfg.max_seq_len}")
        p = self.params if cache is None else cache.params
        x = add(emb, embedding_lookup(p["wpe"], np.asarray(positions, dtype=np.int64)))
        x = self._layers(x, None if L == 1 else self._causal_mask(L, past), lora=lora, cache=cache)
        return matmul(x, p["lm_head"], transpose_b=True)


class SpeechProjector(_Stack):
    """Pre-LN bidirectional transformer encoder mapping averaged speech
    frames into the backbone's embedding space.

    A learned positional table is added to the input frames; without it the
    encoder is near permutation-equivariant and cannot shape its outputs by
    sequence position, which the downstream content-reading circuits need.
    """

    def __init__(self, cfg: ProjectorConfig, rng: Rng, dtype=np.float32):
        self.cfg = cfg
        d = cfg.d_in
        tables = {"wpe": (cfg.max_frames, d)}
        super().__init__(d, cfg.d_ffn, cfg.n_layers, cfg.n_heads, tables, ("out_proj", (cfg.d_out, d)), rng, dtype)

    def forward(self, frames: Tensor, train: bool = False, rng: Rng | None = None, pad_mask=None) -> Tensor:
        """frames: (..., M, d_in) averaged frames; returns (..., M, d_out).

        pad_mask: optional additive attention mask (..., 1, M) with large
        negative values at padded key positions.
        """
        if frames.shape[-1] != self.cfg.d_in:
            raise ShapeError(f"expected frames of width {self.cfg.d_in}, got {frames.shape}")
        if frames.shape[-2] > self.cfg.max_frames:
            raise LengthError(f"{frames.shape[-2]} frames exceed max_frames {self.cfg.max_frames}")
        if train and self.cfg.dropout > 0 and rng is None:
            raise ContractViolation("training-mode projector needs an rng for dropout")
        mask = Tensor(pad_mask) if pad_mask is not None else None
        x = add(frames, embedding_lookup(self.params["wpe"], np.arange(frames.shape[-2], dtype=np.int64)))
        x = self._layers(x, mask, drop=self.cfg.dropout, rng=rng, train=train)
        return matmul(x, self.params["out_proj"], transpose_b=True)


def average_frames(frames: np.ndarray, k: int) -> np.ndarray:
    """Mean-pool every k consecutive rows; the final partial group is averaged
    over its actual size. Output has ceil(T/k) rows."""
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ContractViolation(f"expected a non-empty (T, d) frame matrix, got {frames.shape}")
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if k == 1:
        return frames
    T = frames.shape[0]
    n_groups = int(np.ceil(T / k))
    out = np.empty((n_groups, frames.shape[1]), dtype=frames.dtype)
    for g in range(n_groups):
        out[g] = frames[g * k : min((g + 1) * k, T)].mean(axis=0)
    return out


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
    """embed(prefix) + speech + embed(suffix) + embed(targets), with the loss
    mask covering exactly the target positions."""
    prefix = list(prefix_tokens)
    suffix = list(suffix_tokens)
    targets = list(target_tokens)
    m = 0 if speech_embeddings is None else speech_embeddings.shape[0]
    total = len(prefix) + m + len(suffix) + len(targets)
    if total > max_seq_len:
        raise LengthError(f"spliced length {total} exceeds max_seq_len {max_seq_len}")
    pieces = []
    if prefix:
        pieces.append(embedding_lookup(wte, np.asarray(prefix, dtype=np.int64)))
    if m:
        pieces.append(speech_embeddings)
    tail = suffix + targets
    if tail:
        pieces.append(embedding_lookup(wte, np.asarray(tail, dtype=np.int64)))
    emb = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
    mask = np.zeros(total, dtype=bool)
    mask[total - len(targets) :] = True
    token_ids = np.asarray(prefix + [-1] * m + tail, dtype=np.int64)
    return SplicedPrompt(
        embeddings=emb,
        loss_mask=mask,
        positions=np.arange(total, dtype=np.int64),
        token_ids=token_ids,
    )
