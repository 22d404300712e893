"""Greedy autoregressive decoding and repetition-degeneration detection.

`greedy_decode` decodes one prompt at a time. At the start of each call it
folds the adapters into the frozen site weights, W + (alpha/r)*B@A, one op
per adapted weight, so the forward runs with no adapter matmuls; the folded
weights live only in that call's `KVCache`, so nothing on the backbone or
the adapters can go stale. Speech rows come from
`SpeechProjector.speech_rows`, as in training, and the prompt is spliced as
a batch of one (`splice_prompt`, the one-row case of the training batches'
`splice_grid`); one prefill forward over it fills the cache with every
layer's fused q/k/v rows, and each new token is then fed as a single row
that writes its own after them, in place (one `append_rows` a layer, which
copies no cached row), and attends over the cache: 11 tensor ops a layer
per token. A one-row step's products and layer-norm sums are BLAS calls
made through `ndarray.dot`, not the matmul ufunc. The definition it must
match is the plain loop: run the full model over the whole prefix, with no
cache, and append the argmax of the last row; the tests keep that loop as
the oracle, token for token.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation, LengthError
from .model import Backbone, KVCache, LoraAdapters, SpeechProjector, fold_adapters, splice_prompt
from .prompting import PromptedExample
from .tensor import concat, embedding_lookup, no_grad  # noqa: F401  (perfbench wraps decode.concat)
from .vocab import EOS

DEGENERATION_MAX_N = 4  # the longest n-gram `flag_degeneration` checks
DEGENERATION_MIN_REPEATS = 4  # back-to-back repeats of an n-gram that flag it


def greedy_decode(
    backbone: Backbone,
    prompt: PromptedExample,
    max_new_tokens: int,
    projector: SpeechProjector | None = None,
    adapters: LoraAdapters | None = None,
) -> list[int]:
    """Decode with batch size 1: at every step append the argmax token
    (ties break to the lowest id) until the end-of-answer token or the cap.

    The returned sequence excludes the stop token.
    """
    if prompt.prompt_len + max_new_tokens > backbone.cfg.max_seq_len:
        raise LengthError(
            f"prompt of {prompt.prompt_len} plus {max_new_tokens} new tokens "
            f"exceeds max_seq_len {backbone.cfg.max_seq_len}"
        )
    with no_grad():
        speech = None
        if prompt.frames is not None:
            if projector is None:
                raise ConfigError("speech prompt needs a projector")
            speech = projector.speech_rows([prompt.frames])
        text = prompt.prefix_tokens + (prompt.content_tokens or ())
        sp = splice_prompt(backbone.params["wte"], text, speech, prompt.suffix_tokens, (), backbone.cfg.max_seq_len)
        cache = KVCache(fold_adapters(backbone.params, adapters))
        emb, start = sp.embeddings, 0
        out: list[int] = []
        for _ in range(max_new_tokens):
            rows = emb.shape[0]
            logits = backbone.forward(emb, np.arange(start, start + rows), cache=cache)
            tok = int(np.argmax(logits.data[-1]))  # argmax takes the lowest id on ties
            if tok == EOS:
                break
            out.append(tok)
            start += rows
            emb = embedding_lookup(backbone.params["wte"], np.array([tok]))
        return out


def detect_degeneration(tokens, n: int, min_repeats: int) -> tuple[bool, tuple[int, int] | None]:
    """Flag a consecutive n-gram repeated at least `min_repeats` times.

    Returns (flag, span) where span is the [start, end) of the first
    offending run, covering every consecutive repeat.
    """
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if min_repeats < 2:
        raise ContractViolation("min_repeats must be >= 2")
    tokens = list(tokens)
    for i in range(0, len(tokens) - n * min_repeats + 1):
        gram = tokens[i : i + n]
        repeats = 1
        while tokens[i + repeats * n : i + (repeats + 1) * n] == gram:
            repeats += 1
        if repeats >= min_repeats:
            return True, (i, i + repeats * n)
    return False, None


def flag_degeneration(tokens) -> tuple[bool, tuple[int, int] | None]:
    """Degeneration check over all n-gram sizes 1..DEGENERATION_MAX_N; first span wins."""
    best: tuple[int, int] | None = None
    for n in range(1, DEGENERATION_MAX_N + 1):
        hit, span = detect_degeneration(tokens, n, DEGENERATION_MIN_REPEATS)
        if hit and (best is None or span[0] < best[0]):
            best = span
    return best is not None, best
