import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mmadapt.corpus import CorpusConfig, build_corpus
from mmadapt.errors import ContractViolation, UndefinedWerError
from mmadapt.metrics import (
    bleu4,
    language_confusion,
    make_default_judge,
    normalize_text,
    qa_accuracy,
    sequence_accuracy,
    wer,
)
from mmadapt.rng import Rng
from mmadapt.vocab import build_vocab

from references import corpus_split


# --- normalization ---------------------------------------------------------

NO_DROP = frozenset()


@given(st.lists(st.integers(0, 20), max_size=40), st.frozensets(st.integers(0, 20), max_size=8))
def test_normalize_idempotent(tokens, drop):
    once = normalize_text(tokens, drop)
    assert normalize_text(once, drop) == once


def test_normalize_token_sequences_drop_ids():
    assert normalize_text((1, 5, 7, 9), drop_tokens={1, 7}) == (5, 9)
    assert normalize_text(normalize_text((1, 5, 7), drop_tokens={7}), drop_tokens={7}) == (1, 5)


# --- WER --------------------------------------------------------------------


def _wer_oracle(ref, hyp):
    # full-matrix DP with explicit table, independent of the two-row version
    n, m = len(ref), len(hyp)
    D = np.zeros((n + 1, m + 1), dtype=int)
    D[:, 0] = np.arange(n + 1)
    D[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            D[i, j] = min(
                D[i - 1, j] + 1,
                D[i, j - 1] + 1,
                D[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]),
            )
    return D[n, m] / n


def test_wer_identical_zero():
    assert wer((1, 2, 3), (1, 2, 3), NO_DROP) == 0.0


def test_wer_single_substitution():
    assert wer((1, 2, 3), (1, 9, 3), NO_DROP) == pytest.approx(1 / 3)


def test_wer_matches_dp_oracle_on_random_pairs():
    rng = Rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 12))
        ref = [int(t) for t in rng.integers(0, 6, size=n)]
        hyp = [int(t) for t in rng.integers(0, 6, size=m)]
        assert wer(ref, hyp, NO_DROP) == _wer_oracle(ref, hyp)


def test_wer_invariant_to_normalized_away_text():
    # 0 plays punctuation: dropping it leaves both pairs equal.
    assert wer((1, 2, 3), (1, 2, 3), {0}) == wer((1, 0, 2, 3, 0, 0), (0, 1, 0, 2, 3), {0}) == 0.0
    assert wer((1, 2, 3), (1, 9, 3), {0}) == wer((0, 1, 2, 0, 3), (1, 9, 0, 3, 0), {0})


def test_wer_empty_reference_rejected():
    with pytest.raises(UndefinedWerError):
        wer((0, 0, 0), (1, 2), {0})


# --- BLEU -------------------------------------------------------------------


def test_bleu_perfect_match_is_100():
    assert bleu4([(1, 2, 3, 4, 1, 5)], (1, 2, 3, 4, 1, 5)) == pytest.approx(100.0)


def test_bleu_unigram_only_matches_closed_form():
    ref = (1, 2, 3, 4, 5)
    hyp = (1, 3, 5, 2, 4)  # all unigrams match, no higher n-gram does
    # closed form: p1=1, p2=1/(2*4), p3=1/(4*3), p4=1/(8*2), BP=1
    expected = 100.0 * math.exp(
        (math.log(1.0) + math.log(1 / 8) + math.log(1 / 12) + math.log(1 / 16)) / 4
    )
    assert bleu4([ref], hyp) == pytest.approx(expected, rel=1e-12)


def test_bleu_brevity_penalty_closed_form():
    ref = (1, 2, 3, 4, 5, 6)
    hyp = (1, 2, 3, 4, 5)
    # p_n all 1 for the 5-token hyp; BP = exp(1 - 6/5)
    expected = 100.0 * math.exp(1.0 - 6 / 5)
    assert bleu4([ref], hyp) == pytest.approx(expected, rel=1e-12)


def test_bleu_corruption_strictly_lowers_score():
    ref = tuple(range(1, 9))
    hyp = list(ref)
    perfect = bleu4([ref], tuple(hyp))
    hyp[3] = 99
    corrupted = bleu4([ref], tuple(hyp))
    assert corrupted < perfect


def test_bleu_empty_hypothesis_warns_and_scores_zero():
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        assert bleu4([(1, 2, 3)], ()) == 0.0
    assert w


def test_bleu_token_id_sequences():
    assert bleu4([(3, 4, 5, 6)], (3, 4, 5, 6)) == pytest.approx(100.0)


def test_bleu_needs_a_reference():
    with pytest.raises(ContractViolation):
        bleu4([], (1, 2))


def test_bleu_short_hypothesis_without_four_grams_scores_zero():
    assert bleu4([(1, 2, 3, 4)], (1, 2)) == 0.0


# --- QA accuracy and language confusion -------------------------------------


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_sentences=30, n_contexts=30, seed=9))


def test_default_judge_exact_and_invalid(corpus):
    judge = make_default_judge(corpus.vocab)
    ex = corpus_split(corpus, "QA", "src")[0]
    assert judge(ex, tuple(ex.answer_tokens))
    inv = corpus_split(corpus, "QA", "src", "invalid")[0]
    assert judge(inv, tuple(corpus.vocab.lang("src").not_answerable))
    assert not judge(inv, tuple(ex.answer_tokens))  # content instead of not-answerable


def test_default_judge_accepts_fluent_wrapped_span(corpus):
    # containment oracle: wrapped answers are correct whenever the span matches
    judge = make_default_judge(corpus.vocab)
    vocab = corpus.vocab
    wrong = vocab.lang("tgt3").not_answerable
    for lang in ("src", "tgt1"):
        for ex in corpus_split(corpus, "QA", lang)[:20]:
            assert judge(ex, tuple(ex.answer_tokens))
            lang_obj = vocab.lang(lang)
            bare = tuple(t for t in ex.answer_tokens if t not in (lang_obj.ans_open, lang_obj.ans_close))
            assert judge(ex, bare)
            assert not judge(ex, wrong)


def test_qa_accuracy_alignment_guard(corpus):
    judge = make_default_judge(corpus.vocab)
    with pytest.raises(ContractViolation):
        qa_accuracy(corpus_split(corpus, "QA", "src")[:3], [()] * 2, judge)


def test_qa_accuracy_counts(corpus):
    judge = make_default_judge(corpus.vocab)
    exs = corpus_split(corpus, "QA", "src")[:4]
    outputs = [tuple(e.answer_tokens) for e in exs[:2]] + [(), ()]
    assert qa_accuracy(exs, outputs, judge) == 0.5


def test_language_confusion_classification(corpus):
    vocab = corpus.vocab
    tgt = vocab.lang("tgt2")
    src = vocab.lang("src")
    pure = [tuple(tgt.token_for_symbol(s) for s in (1, 2, 3))] * 3
    assert language_confusion(pure, "tgt2", vocab) == 1.0
    mixed = [(tgt.token_for_symbol(1), src.token_for_symbol(1))]  # 50/50 tie
    assert language_confusion(mixed, "tgt2", vocab) == 0.0
    assert language_confusion([()], "tgt2", vocab) == 0.0  # empty counts as confused


def test_language_confusion_matches_count_oracle(corpus):
    vocab = corpus.vocab
    rng = Rng(23)
    outputs = []
    for _ in range(50):
        lang = vocab.lang(("src", "tgt1", "tgt2", "tgt3")[int(rng.integers(0, 4))])
        outputs.append(tuple(lang.token_for_symbol(int(s)) for s in rng.integers(0, 16, size=3)))
    frac = language_confusion(outputs, "tgt1", vocab)
    oracle = sum(1 for o in outputs if vocab.classify_language(o) == "tgt1") / len(outputs)
    assert frac == oracle


def test_sequence_accuracy():
    assert sequence_accuracy([(1, 2), (3,)], [(1, 2), (4,)]) == 0.5
    with pytest.raises(ContractViolation):
        sequence_accuracy([(1,)], [])


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: language_confusion([], "src", build_vocab(16, 0)), "no outputs", id="language-confusion-empty"),
])
def test_metrics_checks_raise_their_typed_errors(call, match):
    with pytest.raises(ContractViolation, match=match) as raised:
        call()
    assert type(raised.value) is ContractViolation
