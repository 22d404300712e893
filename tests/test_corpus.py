import hashlib

import numpy as np
import pytest

from mmadapt.corpus import (
    D_SPEECH,
    N_SYMBOLS,
    N_THEMES,
    CorpusConfig,
    build_corpus,
    carve_validation,
    dedup_answers,
    default_quality_scorer,
    fluent_rewrite,
    gen_task_dataset,
    make_acoustic_code,
    make_invalid_split,
    quality_filter,
    synthesize_frames,
)
from mmadapt.errors import ConfigError, ContractViolation, VocabularyError
from mmadapt.rng import Rng
from mmadapt.vocab import BOUND, TARGET_LANGUAGES, build_vocab

from references import corpus_split, effective_question_theme


@pytest.fixture(scope="module")
def cfg():
    return CorpusConfig(seed=3)


@pytest.fixture(scope="module")
def vocab(cfg):
    return build_vocab(N_SYMBOLS, cfg.seed)


@pytest.fixture(scope="module")
def acoustic(cfg, vocab):
    return make_acoustic_code(vocab.size, cfg, Rng(cfg.seed).split("acoustic"))


def test_frames_noiseless_single_frame_per_token(vocab):
    cfg = CorpusConfig(noise_sigma=0.0, k_up=1)
    ac = make_acoustic_code(vocab.size, cfg, Rng(0))
    frames = synthesize_frames([5, 9], ac, cfg, Rng(1))
    np.testing.assert_allclose(frames, ac.code[[5, 9]] + ac.offsets[0])


def test_frames_count_is_tokens_times_kup(cfg, acoustic):
    frames = synthesize_frames(list(range(8)), acoustic, cfg, Rng(2))
    assert frames.shape == (8 * cfg.k_up, D_SPEECH)


def test_frames_nearest_row_decoding(cfg, vocab, acoustic):
    # Oracle: mean the k_up frames of each token, decode by nearest code row.
    rng = Rng(7)
    tokens = rng.split("tokens").integers(0, vocab.size, size=10_000)
    frames = synthesize_frames(tokens, acoustic, cfg, rng.split("noise"))
    means = frames.reshape(len(tokens), cfg.k_up, D_SPEECH).mean(axis=1)
    d2 = ((means[:, None, :] - acoustic.code[None, :, :]) ** 2).sum(axis=2)
    decoded = d2.argmin(axis=1)
    assert (decoded == tokens).mean() >= 0.999


def test_frames_unknown_token_rejected(cfg, acoustic):
    with pytest.raises(VocabularyError):
        synthesize_frames([9999], acoustic, cfg, Rng(0))


def test_frames_empty_rejected(cfg, acoustic):
    with pytest.raises(ContractViolation):
        synthesize_frames([], acoustic, cfg, Rng(0))


def test_st_targets_are_tokenwise_bijections(cfg, vocab, acoustic):
    for ex in gen_task_dataset("ST", "tgt1", cfg, Rng(1).split("g"), vocab, acoustic)[:50]:
        assert ex.answer_tokens == vocab.translate(ex.source_tokens, "src", "tgt1")
        assert vocab.translate(ex.answer_tokens, "tgt1", "src") == ex.source_tokens


def test_generation_deterministic(cfg, vocab, acoustic):
    a = gen_task_dataset("ST", "tgt2", cfg, Rng(1).split("g"), vocab, acoustic)
    b = gen_task_dataset("ST", "tgt2", cfg, Rng(1).split("g"), vocab, acoustic)
    assert [e.id for e in a] == [e.id for e in b]
    assert all(x.source_tokens == y.source_tokens and x.answer_tokens == y.answer_tokens for x, y in zip(a, b))
    np.testing.assert_array_equal(a[0].frames, b[0].frames)


def test_st_and_mt_share_source_sentences(cfg, vocab, acoustic):
    st = gen_task_dataset("ST", "tgt1", cfg, Rng(1).split("st"), vocab, acoustic)
    mt = gen_task_dataset("MT", "tgt1", cfg, Rng(1).split("mt"), vocab, acoustic)
    assert [e.source_tokens for e in st] == [e.source_tokens for e in mt]
    assert all(e.frames is None for e in mt)


def test_sqa_answers_match_spans(cfg, vocab, acoustic):
    # Span-extraction oracle: the recorded span indexes the context exactly.
    for lang in ("src", "tgt3"):
        for ex in gen_task_dataset("SQA", lang, cfg, Rng(2).split(lang), vocab, acoustic):
            i, j = ex.span
            span = ex.source_tokens[i:j]
            if lang == "src":
                assert ex.answer_tokens == span
            assert ex.answer_tokens == vocab.translate(span, "src", lang)


def test_asr_requires_source_language(cfg, vocab, acoustic):
    with pytest.raises(ConfigError):
        gen_task_dataset("ASR", "tgt1", cfg, Rng(0), vocab, acoustic)


def test_dedup_removes_duplicate_pairs_and_crossing_spans(cfg, vocab, acoustic):
    exs = gen_task_dataset("QA", "src", cfg, Rng(5).split("qa"), vocab, acoustic)
    deduped = dedup_answers(exs)
    # pairwise-scan oracle: no (context, question, answer) key twice
    keys = [(e.source_tokens, e.question_tokens, e.answer_tokens) for e in deduped]
    assert len(keys) == len(set(keys))
    # every surviving span avoids the boundary marker
    for e in deduped:
        i, j = e.span
        assert BOUND not in e.source_tokens[i:j]
    # the generator did produce offending inputs, so dedup had work to do
    assert len(deduped) < len(exs)
    raw_keys = [(e.source_tokens, e.question_tokens, e.answer_tokens) for e in exs]
    assert len(raw_keys) != len(set(raw_keys))


def test_dedup_keeps_one_of_identical_pairs(cfg, vocab, acoustic):
    exs = gen_task_dataset("QA", "src", cfg, Rng(5).split("qa"), vocab, acoustic)
    dup = [
        e
        for e in exs
        if BOUND not in e.source_tokens[e.span[0] : e.span[1]]
        and sum(
            1
            for o in exs
            if (o.source_tokens, o.question_tokens, o.answer_tokens)
            == (e.source_tokens, e.question_tokens, e.answer_tokens)
        )
        > 1
    ]
    assert dup, "generator should emit some duplicates"
    deduped = dedup_answers(exs)
    key = (dup[0].source_tokens, dup[0].question_tokens, dup[0].answer_tokens)
    survivors = [e for e in deduped if (e.source_tokens, e.question_tokens, e.answer_tokens) == key]
    assert len(survivors) == 1


def test_carve_validation_partitions_by_theme(cfg, vocab, acoustic):
    exs = gen_task_dataset("MT", "tgt1", cfg, Rng(6).split("mt"), vocab, acoustic)
    train, val = carve_validation(exs, 2)
    assert {e.theme_id for e in val} == {0, 1}
    assert not ({e.id for e in train} & {e.id for e in val})
    assert len(train) + len(val) == len(exs)
    with pytest.raises(ConfigError):
        carve_validation(exs, N_THEMES)


def test_invalid_split_mismatches_themes(cfg, vocab, acoustic):
    exs = dedup_answers(gen_task_dataset("QA", "tgt2", cfg, Rng(7).split("qa"), vocab, acoustic))
    out = make_invalid_split(exs, 0.25, Rng(8), vocab)
    invalid = [e for e in out if e.validity == "invalid"]
    assert invalid
    for e in invalid:
        assert effective_question_theme(e) != e.theme_id
        assert e.answer_tokens == vocab.lang("tgt2").not_answerable


def test_invalid_split_fraction_zero_is_identity(cfg, vocab, acoustic):
    exs = dedup_answers(gen_task_dataset("QA", "src", cfg, Rng(9).split("qa"), vocab, acoustic))
    assert make_invalid_split(exs, 0.0, Rng(1), vocab) == exs


def test_invalid_split_deterministic_count(vocab, acoustic):
    cfg = CorpusConfig(n_contexts=700, duplicate_fraction=0.0, crossing_fraction=0.0, seed=11)
    exs = dedup_answers(gen_task_dataset("QA", "src", cfg, Rng(11).split("qa"), vocab, acoustic))
    assert len(exs) >= 1000
    exs = exs[:1000]
    out = make_invalid_split(exs, 0.2, Rng(12), vocab)
    assert sum(1 for e in out if e.validity == "invalid") == 200


def test_invalid_split_single_theme_rejected(cfg, vocab, acoustic):
    exs = dedup_answers(gen_task_dataset("QA", "src", cfg, Rng(9).split("qa"), vocab, acoustic))
    one_theme = [e for e in exs if e.theme_id == 2]
    with pytest.raises(ConfigError):
        make_invalid_split(one_theme, 0.5, Rng(0), vocab)


def test_invalid_split_rejects_mixed_languages_before_any_change(cfg, vocab, acoustic):
    # A donor question must come from the example's own language.
    src = dedup_answers(gen_task_dataset("QA", "src", cfg, Rng(9).split("qa"), vocab, acoustic))
    tgt = dedup_answers(gen_task_dataset("QA", "tgt1", cfg, Rng(9).split("qa"), vocab, acoustic))
    mixed = src[:6] + tgt[:6]
    kept = list(mixed)
    for fraction in (0.0, 0.5):
        with pytest.raises(ContractViolation, match="one language"):
            make_invalid_split(mixed, fraction, Rng(3), vocab)
    assert mixed == kept and all(e.validity == "valid" for e in mixed)


def test_quality_filter_requires_both_scores():
    scores = {("q1",): 0.9, ("a1",): 0.9, ("q2",): 0.9, ("a2",): 0.8}

    class P:
        def __init__(self, q, a):
            self.question_tokens, self.answer_tokens = q, a

    pairs = [P(("q1",), ("a1",)), P(("q2",), ("a2",))]
    kept = quality_filter(pairs, lambda t: scores[tuple(t)], 0.85)
    assert kept == [pairs[0]]
    assert quality_filter([], lambda t: 1.0, 0.85) == []
    with pytest.raises(ConfigError):
        quality_filter(pairs, lambda t: 1.0, 1.5)


def test_quality_filter_monotone(cfg, vocab, acoustic):
    exs = dedup_answers(gen_task_dataset("QA", "tgt1", cfg, Rng(13).split("qa"), vocab, acoustic))
    scorer = default_quality_scorer(vocab, "tgt1")
    sizes = [len(quality_filter(exs, scorer, t)) for t in (0.0, 0.5, 0.85, 1.0)]
    assert sizes == sorted(sizes, reverse=True)


def test_fluent_rewrite_wraps_and_is_idempotent(cfg, vocab, acoustic):
    exs = dedup_answers(gen_task_dataset("QA", "tgt1", cfg, Rng(14).split("qa"), vocab, acoustic))
    lang = vocab.lang("tgt1")
    ex = exs[0]
    once = fluent_rewrite(ex, vocab)
    assert once.answer_tokens == (lang.ans_open,) + ex.answer_tokens + (lang.ans_close,)
    assert fluent_rewrite(once, vocab).answer_tokens == once.answer_tokens
    scorer = default_quality_scorer(vocab, "tgt1")
    assert scorer(once.answer_tokens) >= 0.85


def test_fluent_rewrite_rejects_invalid_examples(cfg, vocab, acoustic):
    exs = dedup_answers(gen_task_dataset("QA", "src", cfg, Rng(15).split("qa"), vocab, acoustic))
    bad = make_invalid_split(exs, 0.5, Rng(16), vocab)
    inv = next(e for e in bad if e.validity == "invalid")
    with pytest.raises(ContractViolation):
        fluent_rewrite(inv, vocab)


def test_build_corpus_deterministic_and_well_formed():
    cfg = CorpusConfig(n_sentences=60, n_contexts=36, seed=21)
    c1 = build_corpus(cfg)
    c2 = build_corpus(cfg)
    assert set(c1.splits) == set(c2.splits)
    for key in c1.splits:
        assert [e.id for e in c1.splits[key]] == [e.id for e in c2.splits[key]]
    # speech presence follows the task
    for (task, _, _, _), exs in c1.splits.items():
        for e in exs[:5]:
            assert (e.frames is not None) == (task in ("ASR", "ST", "SQA"))
    # invalid dev/train splits exist for QA tasks and are theme-mismatched
    for lang in ("src", *TARGET_LANGUAGES):
        for part in ("train", "dev"):
            inv = corpus_split(c1, "SQA", lang, "invalid", part)
            assert inv
            assert all(effective_question_theme(e) != e.theme_id for e in inv)



def _corpus_digest(corpus) -> str:
    """SHA-256 over every split's examples, frames included, and the acoustic code."""
    h = hashlib.sha256()
    for key in sorted(corpus.splits):
        h.update(repr(key).encode())
        for e in corpus.splits[key]:
            spans = [None if t is None else [int(x) for x in t]
                     for t in (e.source_tokens, e.answer_tokens, e.question_tokens, e.span)]
            h.update(repr((e.id, e.theme_id, e.task, e.language, e.validity, e.question_theme_id, spans)).encode())
            if e.frames is not None:
                h.update(np.ascontiguousarray(e.frames, dtype="<f4").tobytes())
    for a in (corpus.acoustic.code, corpus.acoustic.offsets):
        h.update(np.ascontiguousarray(a, dtype="<f4").tobytes())
    return h.hexdigest()


def test_small_corpus_is_pinned_to_its_recorded_digest():
    # Recorded while the corpus shape was still a set of CorpusConfig fields,
    # so a generation constant that drifts from its old default fails here.
    corpus = build_corpus(CorpusConfig(seed=3, n_sentences=48, n_contexts=24))
    assert _corpus_digest(corpus) == "57cd7cff257b22f5f1071a048bc9e504fc59c459243244a79d8fe3350d72b0ff"
