import numpy as np
import pytest

from mmadapt.errors import ConfigError
from mmadapt.vocab import LANGUAGES, LEX_BASE, TARGET_LANGUAGES, build_vocab

from references import translate_by_symbol


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(n_symbols=16, seed=0)


def test_language_permutations_are_bijections(vocab):
    for lid in LANGUAGES:
        lang = vocab.lang(lid)
        assert sorted(lang.perm) == list(range(16))
        for s in range(16):
            assert lang.symbol_for_token(lang.token_for_symbol(s)) == s


def test_reserved_tokens_disjoint_across_languages(vocab):
    seen = set()
    for lid in LANGUAGES:
        lang = vocab.lang(lid)
        toks = {lang.q_sqa, lang.q_st, lang.ans_open, lang.ans_close, *lang.not_answerable}
        assert not (toks & seen)
        seen |= toks


def test_lexical_ranges_disjoint(vocab):
    ranges = [set(vocab.lang(lid).lexical_range) for lid in LANGUAGES]
    for i in range(len(ranges)):
        for j in range(i + 1, len(ranges)):
            assert not (ranges[i] & ranges[j])
    assert all(min(r) >= LEX_BASE for r in ranges)
    assert max(max(r) for r in ranges) < vocab.size


def test_translate_round_trip(vocab):
    tokens = tuple(vocab.lang("src").token_for_symbol(s) for s in (0, 3, 3, 15))
    for tgt in TARGET_LANGUAGES:
        out = vocab.translate(tokens, "src", tgt)
        assert all(t in vocab.lang(tgt).lexical_range for t in out)
        assert vocab.translate(out, tgt, "src") == tokens


def test_translate_tables_match_the_symbol_mapping_for_every_token(vocab):
    ids = list(range(vocab.size))
    for src in LANGUAGES:
        for dst in LANGUAGES:
            want = translate_by_symbol(vocab, ids, src, dst)
            for tokens in (ids, [np.int64(t) for t in ids]):
                got = vocab.translate(tokens, src, dst)
                assert got == want and all(type(t) is int for t in got)
    with pytest.raises(ConfigError):
        vocab.translate(ids, "src", "tgt9")


def test_classify_language(vocab):
    tgt = vocab.lang("tgt2")
    tokens = [tgt.token_for_symbol(s) for s in (1, 2, 3)]
    assert vocab.classify_language(tokens) == "tgt2"
    assert vocab.classify_language([]) is None
    mixed = tokens[:1] + [vocab.lang("src").token_for_symbol(0)]
    assert vocab.classify_language(mixed) is None  # tie -> unclassifiable


def test_vocab_size_guard():
    with pytest.raises(ConfigError):
        build_vocab(n_symbols=20, seed=0, size=96)
