import hashlib
from collections import Counter, defaultdict

import numpy as np
import pytest

from mmadapt import corpus as corpus_module
from mmadapt.corpus import (
    D_SPEECH,
    N_ANCHOR_SYMBOLS,
    N_SYMBOLS,
    PAYLOAD_PER_FACT,
    CorpusConfig,
    Example,
    Utterance,
    build_corpus,
    carve_validation,
    draw_pools,
    gen_task_dataset,
    make_acoustic_code,
    make_invalid_split,
    synthesize_frames,
)
from mmadapt.errors import ConfigError, ContractViolation, VocabularyError
from mmadapt.prompting import render_prompt
from mmadapt.rng import Rng
from mmadapt.vocab import BOUND, LANGUAGES, TARGET_LANGUAGES, build_vocab

from references import corpus_split, effective_question_theme, frames_by_repeat_tile


@pytest.fixture(scope="module")
def cfg():
    return CorpusConfig(seed=3)


@pytest.fixture(scope="module")
def vocab(cfg):
    return build_vocab(N_SYMBOLS, cfg.seed)


@pytest.fixture(scope="module")
def acoustic(cfg, vocab):
    return make_acoustic_code(vocab.size, cfg, Rng(cfg.seed).split("acoustic"))


@pytest.fixture(scope="module")
def pools(cfg, vocab):
    return draw_pools(cfg, vocab)


SMALL = CorpusConfig(n_sentences=60, n_contexts=36, seed=21)


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


def test_frames_match_repeat_and_tile_bit_for_bit(cfg, vocab, acoustic):
    rng = Rng(4)
    for n in (1, 2, 5, 17):
        tokens = [int(t) for t in rng.split("tokens", str(n)).integers(0, vocab.size, size=n)]
        got = synthesize_frames(tokens, acoustic, cfg, rng.split("noise", str(n)))
        want = frames_by_repeat_tile(tokens, acoustic, cfg, rng.split("noise", str(n)))
        assert cfg.noise_sigma > 0 and got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got, want)


def test_frames_unknown_token_rejected(cfg, acoustic):
    with pytest.raises(VocabularyError):
        synthesize_frames([9999], acoustic, cfg, Rng(0))


def test_frames_empty_rejected(cfg, acoustic):
    with pytest.raises(ContractViolation):
        synthesize_frames([], acoustic, cfg, Rng(0))


def test_st_targets_are_tokenwise_bijections(cfg, vocab, acoustic, pools):
    for ex in gen_task_dataset("ST", "tgt1", cfg, Rng(1).split("g"), vocab, acoustic, pools)[:50]:
        assert ex.answer_tokens == vocab.translate(ex.source_tokens, "src", "tgt1")
        assert vocab.translate(ex.answer_tokens, "tgt1", "src") == ex.source_tokens


def test_generation_deterministic(cfg, vocab, acoustic, pools):
    a = gen_task_dataset("ST", "tgt2", cfg, Rng(1).split("g"), vocab, acoustic, pools)
    b = gen_task_dataset("ST", "tgt2", cfg, Rng(1).split("g"), vocab, acoustic, pools)
    assert [e.id for e in a] == [e.id for e in b]
    assert all(x.source_tokens == y.source_tokens and x.answer_tokens == y.answer_tokens for x, y in zip(a, b))
    np.testing.assert_array_equal(a[0].frames, b[0].frames)


def test_st_and_mt_share_source_sentences():
    corpus = build_corpus(SMALL)
    for lang in TARGET_LANGUAGES:
        for part in ("train", "dev"):
            st = corpus_split(corpus, "ST", lang, part=part)
            mt = corpus_split(corpus, "MT", lang, part=part)
            assert st and [e.source_tokens for e in st] == [e.source_tokens for e in mt]
            assert all(e.frames is None for e in mt)


def test_sqa_answers_match_spans(cfg, vocab, acoustic, pools):
    # Span-extraction oracle: the recorded span indexes the context exactly,
    # and the answer is that span, translated, in its fluent wrapping.
    for lang in ("src", "tgt3"):
        wrap = vocab.lang(lang)
        for ex in gen_task_dataset("SQA", lang, cfg, Rng(2).split(lang), vocab, acoustic, pools):
            i, j = ex.span
            span = ex.source_tokens[i:j]
            if lang == "src":
                assert ex.answer_tokens == (wrap.ans_open, *span, wrap.ans_close)
            assert ex.answer_tokens == (wrap.ans_open, *vocab.translate(span, "src", lang), wrap.ans_close)


def test_asr_requires_source_language(cfg, vocab, acoustic, pools):
    with pytest.raises(ConfigError):
        gen_task_dataset("ASR", "tgt1", cfg, Rng(0), vocab, acoustic, pools)


def test_carve_validation_partitions_by_theme(cfg, vocab, acoustic, pools):
    exs = gen_task_dataset("MT", "tgt1", cfg, Rng(6).split("mt"), vocab, acoustic, pools)
    train, val = carve_validation(exs)
    assert {e.theme_id for e in val} == {0, 1}
    assert not ({e.id for e in train} & {e.id for e in val})
    assert len(train) + len(val) == len(exs)
    with pytest.raises(ConfigError):  # carving every theme would leave no train split
        carve_validation(val)


def test_invalid_split_mismatches_themes(cfg, vocab, acoustic, pools):
    exs = gen_task_dataset("QA", "tgt2", cfg, Rng(7).split("qa"), vocab, acoustic, pools)
    out = make_invalid_split(exs, Rng(8), vocab)
    invalid = [e for e in out if e.validity == "invalid"]
    assert invalid
    for e in invalid:
        assert effective_question_theme(e) != e.theme_id
        assert e.answer_tokens == vocab.lang("tgt2").not_answerable


def test_invalid_split_deterministic_count(vocab, acoustic):
    cfg = CorpusConfig(n_contexts=700, crossing_fraction=0.0, seed=11)
    pools = draw_pools(cfg, vocab)
    exs = gen_task_dataset("QA", "src", cfg, Rng(11).split("qa"), vocab, acoustic, pools)
    assert len(exs) >= 1000
    exs = exs[:1000]
    out = make_invalid_split(exs, Rng(12), vocab)
    assert sum(1 for e in out if e.validity == "invalid") == 200


def test_invalid_split_single_theme_rejected(cfg, vocab, acoustic, pools):
    exs = gen_task_dataset("QA", "src", cfg, Rng(9).split("qa"), vocab, acoustic, pools)
    one_theme = [e for e in exs if e.theme_id == 2]
    with pytest.raises(ConfigError):
        make_invalid_split(one_theme, Rng(0), vocab)


def test_invalid_split_rejects_mixed_languages_before_any_change(cfg, vocab, acoustic, pools):
    # A donor question must come from the example's own language.
    src = gen_task_dataset("QA", "src", cfg, Rng(9).split("qa"), vocab, acoustic, pools)
    tgt = gen_task_dataset("QA", "tgt1", cfg, Rng(9).split("qa"), vocab, acoustic, pools)
    mixed = src[:6] + tgt[:6]
    kept = list(mixed)
    with pytest.raises(ContractViolation, match="one language"):
        make_invalid_split(mixed, Rng(3), vocab)
    assert mixed == kept and all(e.validity == "valid" for e in mixed)


def _corpus_digest(corpus, content_only: bool = False) -> str:
    """SHA-256 over every split's examples, ids and frames included unless
    `content_only`, and the acoustic code."""
    h = hashlib.sha256()
    for key in sorted(corpus.splits):
        h.update(repr(key).encode())
        for e in corpus.splits[key]:
            spans = [None if t is None else [int(x) for x in t]
                     for t in (e.source_tokens, e.answer_tokens, e.question_tokens, e.span)]
            fields = (e.theme_id, e.task, e.language, e.validity, e.question_theme_id, spans)
            h.update(repr(fields if content_only else (e.id, *fields)).encode())
            if not content_only and e.frames is not None:
                h.update(np.ascontiguousarray(e.frames, dtype="<f4").tobytes())
    for a in (corpus.acoustic.code, corpus.acoustic.offsets):
        h.update(np.ascontiguousarray(a, dtype="<f4").tobytes())
    return h.hexdigest()


def _content_digest(corpus) -> str:
    """What each split holds, in order: no ids, no frames."""
    return _corpus_digest(corpus, content_only=True)


# Recorded while the generator still planted duplicate questions and
# question spans that cross a boundary, and a dedup pass removed them, so a
# generation change that alters what any split holds fails here.
CONTENT_DIGESTS = {
    SMALL: "d26dcf2f169e73826454403aaafc0ec631911d4ab74037fec3a43eca3b9e1cce",
    CorpusConfig(seed=3, n_sentences=48, n_contexts=24): "e6ce979e17c1c956c183393729f6df93a73ff12a306cb4c669452ec9fbf2004d",
    CorpusConfig(seed=1): "7238132d97c3ae0564291dd48b3cd1815233d104fa6d1ec9cb7351123c22fd40",
    CorpusConfig(seed=7): "d8fd7bc25aa0852e68a15c55f2f66061094fdcf69b04745897a3e830f6267a26",
}


@pytest.mark.parametrize("config", list(CONTENT_DIGESTS), ids=lambda c: f"seed{c.seed}-{c.n_sentences}-{c.n_contexts}")
def test_corpus_content_is_pinned_to_its_recorded_digest(config):
    assert _content_digest(build_corpus(config)) == CONTENT_DIGESTS[config]


def test_build_corpus_deterministic_and_well_formed(monkeypatch):
    # One build draws each shared pool once: the ASR pool, one sentence pool
    # per target language (ST and MT) and one context list (all SQA/QA
    # splits). A second build draws them all again, so nothing outlives a
    # build, and gives the same corpus bit for bit.
    calls = Counter()
    for name in ("_gen_sentences", "_gen_contexts"):
        def counted(*args, _draw=getattr(corpus_module, name), _name=name):
            calls[_name] += 1
            return _draw(*args)

        monkeypatch.setattr(corpus_module, name, counted)
    c1 = build_corpus(SMALL)
    assert calls == {"_gen_sentences": 1 + len(TARGET_LANGUAGES), "_gen_contexts": 1}
    c2 = build_corpus(SMALL)
    assert calls == {"_gen_sentences": 2 * (1 + len(TARGET_LANGUAGES)), "_gen_contexts": 2}
    assert _corpus_digest(c1) == _corpus_digest(c2)
    # speech presence follows the task
    for (task, _, _, _), exs in c1.splits.items():
        for e in exs[:5]:
            assert (e.frames is not None) == (task in ("ASR", "ST", "SQA"))
    # invalid dev/train splits exist for QA tasks and are theme-mismatched
    for lang in LANGUAGES:
        for part in ("train", "dev"):
            inv = corpus_split(c1, "SQA", lang, "invalid", part)
            assert inv
            assert all(effective_question_theme(e) != e.theme_id for e in inv)


def test_small_corpus_is_pinned_to_its_recorded_digest():
    # Ids and frames included. The content digest of this config holds its
    # splits to the ones built while the corpus shape was still a set of
    # CorpusConfig fields, so a generation constant that drifts fails there.
    corpus = build_corpus(CorpusConfig(seed=3, n_sentences=48, n_contexts=24))
    assert _corpus_digest(corpus) == "b7f8a04d1caf7132132017644c88d15229f849f38302200155c5b44b0933c4ef"


# The corpus every benchmark workload builds, at two seeds, ids and frames
# included. Recorded when SQA/QA ids became consecutive and each SQA
# utterance took its context's index as its label; `CONTENT_DIGESTS` holds
# the content to the corpus built before, so a generation change that
# alters the benchmark's data fails here.
FULL_DIGESTS = {
    1: "7516132c302d4f37d893d3269c4a875a7ffec5460a62b4d199cb73e12c7b4a19",
    7: "b8e0ce12b7e84cdfe7aad33a099db0acd7d72cd293a2b40202caa3daff1b3c24",
}


@pytest.fixture(scope="module", params=sorted(FULL_DIGESTS))
def full_corpus(request):
    return build_corpus(CorpusConfig(seed=request.param))


def test_benchmark_size_corpus_is_pinned_to_its_recorded_digest(full_corpus):
    assert _corpus_digest(full_corpus) == FULL_DIGESTS[full_corpus.cfg.seed]


def test_every_example_id_is_unique_across_all_splits(full_corpus):
    # The trainer's render cache keys on (id, modality), and a schedule's
    # manifest names its batches' examples by id alone.
    ids = [e.id for exs in full_corpus.splits.values() for e in exs]
    assert ids and len(set(ids)) == len(ids)


def _qa_splits(corpus):
    for (task, lang, validity, part), exs in corpus.splits.items():
        if task in ("SQA", "QA"):
            assert exs, (task, lang, validity, part)
            yield corpus.vocab.lang(lang), validity, exs


def test_qa_questions_and_answers_use_only_their_languages_tokens(full_corpus):
    # Generation writes only the language's lexical tokens and its question
    # and answer markers, so a well-formedness filter would drop nothing.
    for lang, _, exs in _qa_splits(full_corpus):
        allowed = {*lang.lexical_range, *lang.not_answerable, lang.q_sqa, lang.ans_open, lang.ans_close}
        for e in exs:
            assert set(e.question_tokens) <= allowed and set(e.answer_tokens) <= allowed, e.id


def test_valid_answers_are_wrapped_and_invalid_answers_are_not_answerable(full_corpus):
    for lang, validity, exs in _qa_splits(full_corpus):
        for e in exs:
            assert e.validity == validity
            if validity == "valid":
                assert len(e.answer_tokens) > 2 and e.answer_tokens[0] == lang.ans_open
                assert e.answer_tokens[-1] == lang.ans_close and lang.ans_close not in e.answer_tokens[1:-1]
            else:
                assert e.answer_tokens == lang.not_answerable


def test_valid_spans_are_whole_and_no_split_repeats_a_question(full_corpus):
    # An invalid split may repeat a triple: two questions of one context can
    # draw the same donor question.
    for _, validity, exs in _qa_splits(full_corpus):
        if validity == "valid":
            for e in exs:
                i, j = e.span
                assert BOUND not in e.source_tokens[i:j], e.id
            keys = [(e.source_tokens, e.question_tokens, e.answer_tokens) for e in exs]
            assert len(keys) == len(set(keys))


def test_a_fact_whose_payload_a_boundary_splits_gets_no_question(full_corpus):
    # Anchors appear only as fact anchors, so every anchor token opens a fact
    # whose payload is the next PAYLOAD_PER_FACT tokens unless a boundary
    # splits it.
    src = full_corpus.vocab.lang("src")
    symbol_of = {src.token_for_symbol(s): s for s in range(N_ANCHOR_SYMBOLS)}
    split = 0
    for _, tokens, questions in draw_pools(full_corpus.cfg, full_corpus.vocab).contexts:
        whole = []
        for a, t in enumerate(tokens):
            if t in symbol_of:
                if BOUND in tokens[a + 1 : a + 1 + PAYLOAD_PER_FACT]:
                    split += 1
                else:
                    whole.append((symbol_of[t], (a + 1, a + 1 + PAYLOAD_PER_FACT)))
        assert questions == whole
    assert split > 0


def test_a_full_build_draws_no_stream_per_question(monkeypatch):
    # One stream per sentence and context, one per invalid example's donor
    # draw, and a few roots: none per generated question.
    paths = []

    def counted(self, seed, path=(), _init=Rng.__init__):
        _init(self, seed, path)
        paths.append(self.path)

    monkeypatch.setattr(Rng, "__init__", counted)
    build_corpus(CorpusConfig(seed=7))
    assert len(paths) == 5943
    assert not any("dups" in p for p in paths)


# ---------------------------------------------------------------------------
# frames are synthesized on first read
# ---------------------------------------------------------------------------


def _count_synthesis(monkeypatch) -> list:
    """Record the noise stream's label path of every `synthesize_frames` call."""
    calls = []

    def counted(tokens, acoustic, cfg, rng, _synthesize=corpus_module.synthesize_frames):
        calls.append(rng.path)
        return _synthesize(tokens, acoustic, cfg, rng)

    monkeypatch.setattr(corpus_module, "synthesize_frames", counted)
    return calls


def test_build_and_text_rendering_synthesize_no_frames(monkeypatch):
    calls = _count_synthesis(monkeypatch)
    corpus = build_corpus(CorpusConfig(seed=7))
    for exs in corpus.sampler_pools().values():
        for ex in exs:
            render_prompt(ex, "text", corpus.vocab, frame_avg_k=3)
    assert not calls


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_frames_do_not_depend_on_the_order_they_are_read_in(order):
    # Each utterance draws its noise from its own label-addressed stream.
    corpus = build_corpus(CorpusConfig(seed=7))
    keys = sorted(corpus.splits)
    for key in keys if order == "forward" else keys[::-1]:
        exs = corpus.splits[key]
        for e in exs if order == "forward" else exs[::-1]:
            e.frames
    assert _corpus_digest(corpus) == FULL_DIGESTS[7]


def test_sqa_frames_come_from_their_contexts_label_path(full_corpus):
    # A context's utterance is labelled by the context's index in the pool,
    # so no label depends on how many questions earlier contexts hold.
    cfg = full_corpus.cfg
    contexts = draw_pools(cfg, full_corpus.vocab).contexts
    index = defaultdict(list)
    for c, (_, tokens, _) in enumerate(contexts):
        index[tokens].append(c)
    for lang in LANGUAGES:
        holders = {}
        for (task, split_lang, _, _), exs in full_corpus.splits.items():
            if task == "SQA" and split_lang == lang:
                for e in exs:
                    holders.setdefault(e.speech.labels, e.speech)
                    assert holders[e.speech.labels] is e.speech
                    assert e.speech.labels in {("frames", f"ctx-{lang}-{c}") for c in index[e.source_tokens]}
        for (_, label), u in holders.items():
            stream = Rng(cfg.seed).split("gen", "SQA", lang, "frames", label)
            np.testing.assert_array_equal(u.frames, synthesize_frames(u.tokens, full_corpus.acoustic, cfg, stream))


def test_sqa_examples_of_one_context_share_one_utterance_read_once(monkeypatch):
    # Valid and invalid, train and dev: every SQA example of one context in
    # one language holds one utterance, synthesized on the first read only.
    calls = _count_synthesis(monkeypatch)
    corpus = build_corpus(SMALL)
    contexts = Counter(ctx for _, ctx, _ in draw_pools(SMALL, corpus.vocab).contexts)
    for lang in LANGUAGES:
        groups = defaultdict(list)
        for (task, split_lang, _, _), exs in corpus.splits.items():
            if task == "SQA" and split_lang == lang:
                for e in exs:
                    groups[e.source_tokens].append(e)
        unique = [g for t, g in groups.items() if contexts[t] == 1]
        assert all(len({id(e.speech) for e in g}) == 1 for g in unique)
        mixed = [g for g in unique if {e.validity for e in g} == {"valid", "invalid"}]
        group = max(mixed, key=len)
        first = [e.frames for e in group]
        assert len(calls) == 1
        assert all(f is first[0] for f in first) and all(e.frames is first[0] for e in group)
        assert not first[0].flags.writeable
        calls.clear()


def test_text_task_example_with_speech_rejected(cfg, acoustic):
    utterance = Utterance((40, 41), acoustic, cfg, Rng(0), ("frames", "mt"))
    with pytest.raises(ContractViolation, match="carry no speech"):
        Example(id="mt-tgt1-0", theme_id=0, task="MT", language="tgt1", source_tokens=(40, 41),
                answer_tokens=(56, 57), speech=utterance)


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda gen: CorpusConfig(k_up=0), ConfigError, "k_up", id="k_up"),
    pytest.param(lambda gen: CorpusConfig(noise_sigma=-0.01), ConfigError, "noise_sigma", id="noise_sigma"),
    pytest.param(lambda gen: CorpusConfig(noise_sigma=float("nan")), ConfigError, "noise_sigma", id="noise_sigma-nan"),
    *[pytest.param(lambda gen, f=f: CorpusConfig(crossing_fraction=f), ConfigError, "crossing_fraction",
                   id=f"crossing_fraction-{f}") for f in (1.0, 2.0, -1.0, float("nan"))],
    pytest.param(lambda gen: Example(id="mt-tgt1-0", theme_id=0, task="MT", language="tgt1", source_tokens=(40,),
                                     answer_tokens=(56,), validity="invalid"),
                 ContractViolation, "only SQA/QA", id="invalid-mt-example"),
    pytest.param(lambda gen: gen("TTS", "src"), ConfigError, "unknown task", id="unknown-task"),
    pytest.param(lambda gen: gen("ST", "src"), ConfigError, "requires a target language", id="st-in-src"),
    pytest.param(lambda gen: gen("MT", "src"), ConfigError, "requires a target language", id="mt-in-src"),
    pytest.param(lambda gen: gen("QA", "tgt9"), ConfigError, "unknown language", id="unknown-language"),
])
def test_corpus_checks_raise_their_typed_errors(cfg, vocab, acoustic, pools, call, error, match):
    def gen(task, language):
        return gen_task_dataset(task, language, cfg, Rng(0), vocab, acoustic, pools)

    with pytest.raises(error, match=match) as raised:
        call(gen)
    assert type(raised.value) is error
