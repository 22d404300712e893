from dataclasses import replace

import numpy as np
import pytest

from mmadapt.corpus import D_SPEECH, CorpusConfig, build_corpus
from mmadapt.errors import ContractViolation
from mmadapt.model import splice_prompt
from mmadapt.prompting import question_line, render_prompt
from mmadapt.tensor import Tensor
from mmadapt.vocab import (
    ANSWER_PROMPT,
    EOS,
    Q_ASR,
    SPEECH_CLOSE,
    SPEECH_OPEN,
    TARGET_LANGUAGES,
    TEXT_CLOSE,
    TEXT_OPEN,
)

from references import corpus_split


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_sentences=40, n_contexts=24, seed=5))


def test_speech_placeholder_length_is_ceil_t_over_k(corpus):
    ex = corpus_split(corpus, "ASR", "src")[0]
    k = corpus.cfg.k_up  # frames per token == averaging factor
    p = render_prompt(ex, "speech", corpus.vocab, frame_avg_k=k)
    assert p.frames.shape == (int(np.ceil(ex.frames.shape[0] / k)), D_SPEECH)
    assert p.content_len == len(ex.source_tokens)
    ex9 = next(e for e in corpus_split(corpus, "ASR", "src") if len(e.source_tokens) == 5)
    p9 = render_prompt(ex9, "speech", corpus.vocab, frame_avg_k=3)
    assert p9.content_len == int(np.ceil(ex9.frames.shape[0] / 3))


def test_text_prompt_has_no_speech_tags(corpus):
    ex = corpus_split(corpus, "MT", "tgt1")[0]
    p = render_prompt(ex, "text", corpus.vocab, frame_avg_k=3)
    tokens = p.prefix_tokens + p.content_tokens + p.suffix_tokens + p.target_tokens
    assert SPEECH_OPEN not in tokens and SPEECH_CLOSE not in tokens
    assert p.prefix_tokens == (TEXT_OPEN,)
    assert TEXT_CLOSE in p.suffix_tokens
    assert p.frames is None


def test_suffix_immediately_precedes_first_masked_position(corpus):
    for key in (("ASR", "src"), ("ST", "tgt2"), ("SQA", "tgt1")):
        ex = corpus_split(corpus, *key)[0]
        p = render_prompt(ex, "speech", corpus.vocab, frame_avg_k=3)
        # Spliced as training splices it, with a stand-in projector output.
        wte, speech = Tensor(np.zeros((96, 4))), Tensor(np.zeros((p.content_len, 4)))
        sp = splice_prompt(wte, p.prefix_tokens, speech, p.suffix_tokens, p.target_tokens, 256)
        mask = sp.loss_mask
        first = int(np.argmax(mask))
        assert mask[first:].all() and not mask[:first].any()
        assert sp.token_ids[first - 1] == ANSWER_PROMPT
        assert first == p.prompt_len


def test_rendering_deterministic(corpus):
    ex = corpus_split(corpus, "SQA", "src")[0]
    a = render_prompt(ex, "speech", corpus.vocab, frame_avg_k=3)
    b = render_prompt(ex, "speech", corpus.vocab, frame_avg_k=3)
    assert a.prefix_tokens == b.prefix_tokens
    assert a.suffix_tokens == b.suffix_tokens
    assert a.target_tokens == b.target_tokens
    np.testing.assert_array_equal(a.frames, b.frames)


def test_targets_end_with_end_of_answer(corpus):
    ex = corpus_split(corpus, "ST", "tgt3")[0]
    p = render_prompt(ex, "speech", corpus.vocab, frame_avg_k=3)
    assert p.target_tokens[-1] == EOS
    assert p.target_tokens[:-1] == tuple(ex.answer_tokens)


def test_st_question_lines_differ_per_language_asr_fixed(corpus):
    st_lines = {lang: question_line(corpus_split(corpus, "ST", lang)[0], corpus.vocab) for lang in TARGET_LANGUAGES}
    assert len(set(st_lines.values())) == len(TARGET_LANGUAGES)
    assert question_line(corpus_split(corpus, "ASR", "src")[0], corpus.vocab) == (Q_ASR,)
    for lang in TARGET_LANGUAGES:
        assert question_line(corpus_split(corpus, "MT", lang)[0], corpus.vocab) == st_lines[lang]


def test_speech_rendering_requires_frames(corpus):
    ex = corpus_split(corpus, "MT", "tgt1")[0]
    with pytest.raises(ContractViolation):
        render_prompt(ex, "speech", corpus.vocab, frame_avg_k=3)


def test_sqa_question_is_example_specific(corpus):
    a, b = corpus_split(corpus, "SQA", "tgt2")[:2]
    pa = render_prompt(a, "speech", corpus.vocab, frame_avg_k=3)
    pb = render_prompt(b, "speech", corpus.vocab, frame_avg_k=3)
    assert tuple(a.question_tokens) == pa.suffix_tokens[1:-1]
    if a.question_tokens != b.question_tokens:
        assert pa.suffix_tokens != pb.suffix_tokens


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda c: render_prompt(replace(corpus_split(c, "QA", "src")[0], question_tokens=None), "text",
                                         c.vocab, 3),
                 "QA rendering needs the example's question", id="qa-without-question"),
    pytest.param(lambda c: question_line(replace(corpus_split(c, "MT", "tgt1")[0], task="TTS"), c.vocab), "unknown task",
                 id="unknown-task"),
    pytest.param(lambda c: render_prompt(corpus_split(c, "MT", "tgt1")[0], "video", c.vocab, 3), "unknown modality",
                 id="unknown-modality"),
])
def test_prompting_checks_raise_their_typed_errors(corpus, call, match):
    with pytest.raises(ContractViolation, match=match) as raised:
        call(corpus)
    assert type(raised.value) is ContractViolation
