"""Greedy autoregressive decoding and repetition-degeneration detection.

`greedy_decode` decodes one prompt at a time through the weights it is
given: the backbone's parameters with any adapters already folded in,
W + (alpha/r)*B@A, as `fold_adapters` returns them, so the forward runs
with no adapter matmuls. A caller that decodes many prompts folds once and
passes the same weights to every call (`trainer._dev_outputs` does, once
per dev metric call); the folded dict lives only as long as that caller
keeps it, so nothing on the backbone or the adapters can go stale. Speech
rows come from `SpeechProjector.speech_rows`, as in training, and the
prompt is spliced as a batch of one (`splice_prompt`, the one-row case of
the training batches' `splice_grid`). One prefill forward over it fills a
`KVCache` sized to the sequence, prompt plus new tokens, with every
layer's fused q/k/v rows; each new token is then fed as a single row that
writes its own after them, in place (one `append_rows` a layer, which
copies no cached row), and attends over the cache: 11 tensor ops a layer
per token. A one-row step's products are BLAS calls made through
`ndarray.dot`, its layer norms work on the row's 1-D view with scalar
statistics, and its attention reads its one query's heads by plain
slices. The definition it must match is the plain loop: run the full
model over the whole prefix, with no cache, and append the argmax of the
last row; the tests keep that loop as the oracle, token for token.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractViolation, LengthError
from .model import Backbone, KVCache, SpeechProjector, splice_prompt
from .prompting import PromptedExample
from .tensor import Tensor, concat, embedding_lookup, no_grad  # noqa: F401  (perfbench wraps decode.concat)
from .vocab import EOS

DEGENERATION_MAX_N = 4  # the longest n-gram `flag_degeneration` checks
DEGENERATION_MIN_REPEATS = 4  # back-to-back repeats of an n-gram that flag it


def greedy_decode(
    backbone: Backbone,
    prompt: PromptedExample,
    max_new_tokens: int,
    projector: SpeechProjector | None = None,
    weights: dict[str, Tensor] | None = None,
) -> list[int]:
    """Decode with batch size 1: at every step append the argmax token
    (ties break to the lowest id) until the end-of-answer token or the cap.

    `weights` holds exactly the backbone's parameter names, with any
    adapters folded in (`fold_adapters`); it defaults to `backbone.params`.
    The returned sequence excludes the stop token.
    """
    if prompt.prompt_len + max_new_tokens > backbone.cfg.max_seq_len:
        raise LengthError(
            f"prompt of {prompt.prompt_len} plus {max_new_tokens} new tokens "
            f"exceeds max_seq_len {backbone.cfg.max_seq_len}"
        )
    if weights is None:
        weights = backbone.params
    elif weights.keys() != backbone.params.keys():
        raise ContractViolation("weights must hold exactly the backbone's parameter names (see fold_adapters)")
    with no_grad():
        speech = None
        if prompt.frames is not None:
            if projector is None:
                raise ConfigError("speech prompt needs a projector")
            speech = projector.speech_rows([prompt.frames])
        text = prompt.prefix_tokens + (prompt.content_tokens or ())
        sp = splice_prompt(weights["wte"], text, speech, prompt.suffix_tokens, (), backbone.cfg.max_seq_len)
        cache = KVCache(weights, prompt.prompt_len + max_new_tokens)
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
            emb = embedding_lookup(weights["wte"], np.array([tok]))
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
