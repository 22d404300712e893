"""Evaluation metrics over token-id sequences: normalization, WER,
smoothed BLEU-4, QA accuracy, language confusion.

Every input is a sequence of token ids. Normalization only drops the
caller-provided punctuation-like ids; there are no text rules.
"""

from __future__ import annotations

import warnings
from math import exp, log

from .corpus import Example
from .errors import ContractViolation, UndefinedWerError
from .vocab import Vocab


def normalize_text(tokens, drop_tokens: frozenset[int] | set[int]) -> tuple[int, ...]:
    """`tokens` without the `drop_tokens` ids (idempotent)."""
    return tuple(t for t in tokens if t not in drop_tokens)


def wer(reference, hypothesis, drop_tokens: frozenset[int] | set[int]) -> float:
    """Token-level Levenshtein distance over normalized forms, divided by
    the reference length. Substitution, insertion and deletion all cost 1."""
    ref = normalize_text(reference, drop_tokens)
    hyp = normalize_text(hypothesis, drop_tokens)
    if not ref:
        raise UndefinedWerError("reference is empty after normalization")
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1] / len(ref)


def _ngram_counts(units: list, n: int) -> dict:
    counts: dict = {}
    for i in range(len(units) - n + 1):
        g = tuple(units[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu4(references, hypothesis) -> float:
    """Smoothed BLEU-4 in [0, 100].

    score = BP * exp(mean_n log p_n) * 100 over n = 1..4, where p_n is the
    clipped n-gram precision. Exponential smoothing: the k-th order with a
    zero match count scores 1 / (2^k * total_n). An order with no n-grams at
    all (hypothesis shorter than n) makes the score 0. BP = min(1,
    exp(1 - ref_len / hyp_len)) with the closest reference length.
    """
    refs = [list(r) for r in references]
    if not refs:
        raise ContractViolation("bleu4 needs at least one reference")
    hyp = list(hypothesis)
    if not hyp:
        warnings.warn("empty hypothesis scores 0 BLEU", stacklevel=2)
        return 0.0
    log_precisions = []
    smooth = 1.0
    for n in range(1, 5):
        hyp_counts = _ngram_counts(hyp, n)
        total = max(len(hyp) - n + 1, 0)
        if total == 0:
            return 0.0
        max_ref: dict = {}
        for ref in refs:
            for g, c in _ngram_counts(ref, n).items():
                max_ref[g] = max(max_ref.get(g, 0), c)
        correct = sum(min(c, max_ref.get(g, 0)) for g, c in hyp_counts.items())
        if correct == 0:
            smooth *= 2.0
            p = 1.0 / (smooth * total)
        else:
            p = correct / total
        log_precisions.append(log(p))
    hyp_len = len(hyp)
    ref_len = min((abs(len(r) - hyp_len), len(r)) for r in refs)[1]
    bp = 1.0 if hyp_len >= ref_len else exp(1.0 - ref_len / hyp_len)
    return bp * exp(sum(log_precisions) / 4.0) * 100.0


def sequence_accuracy(references, hypotheses) -> float:
    """Exact-match fraction over aligned sequence pairs."""
    if len(references) != len(hypotheses):
        raise ContractViolation("reference/hypothesis lists are misaligned")
    if not references:
        return 0.0
    return sum(1 for r, h in zip(references, hypotheses) if tuple(r) == tuple(h)) / len(references)


def make_default_judge(vocab: Vocab):
    """Deterministic QA judge: a valid answer is correct when every
    normalized reference token appears in the normalized output; an invalid
    example is correct only on the exact not-answerable sequence."""
    drop = vocab.normalization_drop_ids

    def judge(example: Example, output_tokens) -> bool:
        out = normalize_text(tuple(output_tokens), drop)
        if example.validity == "invalid":
            return tuple(output_tokens) == tuple(vocab.lang(example.language).not_answerable)
        ref = normalize_text(tuple(example.answer_tokens), drop)
        return bool(ref) and all(t in out for t in ref)

    return judge


def qa_accuracy(examples: list[Example], outputs: list, judge) -> float:
    """Fraction of outputs the judge accepts; lists must be aligned."""
    if len(examples) != len(outputs):
        raise ContractViolation("examples and outputs are misaligned")
    if not examples:
        return 0.0
    return sum(1 for ex, out in zip(examples, outputs) if judge(ex, out)) / len(examples)


def language_confusion(outputs: list, expected_language: str, vocab: Vocab) -> float:
    """Fraction of outputs whose majority lexical range is the expected
    language. Empty or tied outputs count as confused."""
    if not outputs:
        raise ContractViolation("no outputs to classify")
    hits = sum(1 for out in outputs if vocab.classify_language(out) == expected_language)
    return hits / len(outputs)
