"""Token layout and toy languages.

One flat token space holds shared structural tokens plus four disjoint
per-language lexical ranges. Each language maps the common base symbols
into its own range through a seeded permutation, so "translation" is a
tokenwise bijection and outputs can be classified by range membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, VocabularyError
from .rng import Rng

LANGUAGES = ("src", "tgt1", "tgt2", "tgt3")
TARGET_LANGUAGES = ("tgt1", "tgt2", "tgt3")

PAD = 0
EOS = 1
SPEECH_OPEN = 2
SPEECH_CLOSE = 3
TEXT_OPEN = 4
TEXT_CLOSE = 5
ANSWER_PROMPT = 6  # "Your answer:" suffix token
BOUND = 7  # sentence boundary inside QA contexts
Q_ASR = 8  # fixed transcription instruction, shared across languages

_Q_ST_BASE = 9  # 3 tokens, one per target language
_Q_SQA_BASE = 12  # 4 tokens, one per language
_NOT_ANSWERABLE_BASE = 16
_ANS_OPEN_BASE = 20
_ANS_CLOSE_BASE = 24
Q_ST_SRC = 28  # translate-into-source instruction (reverse direction)
LEX_BASE = 32  # per-language lexical ranges start here


@dataclass(frozen=True)
class ToyLanguage:
    """One toy language: a lexical range plus its reserved tokens."""

    id: str
    perm: tuple[int, ...]  # base symbol -> offset within the lexical range
    lex_base: int
    n_symbols: int
    q_sqa: int
    not_answerable: tuple[int, ...]
    ans_open: int
    ans_close: int
    q_st: int  # translate-into-this-language instruction; Q_ST_SRC for the source language

    def token_for_symbol(self, symbol: int) -> int:
        return self.lex_base + self.perm[symbol]

    def symbol_for_token(self, token: int) -> int:
        off = token - self.lex_base
        if not 0 <= off < self.n_symbols:
            raise VocabularyError(f"token {token} not in lexical range of {self.id}")
        return self.perm.index(off)

    @property
    def lexical_range(self) -> range:
        return range(self.lex_base, self.lex_base + self.n_symbols)


@dataclass(frozen=True)
class Vocab:
    size: int
    languages: dict[str, ToyLanguage] = field(repr=False)
    # (src, dst) -> {lexical token of src: the same symbol's token in dst}
    tables: dict[tuple[str, str], dict[int, int]] = field(repr=False)

    def lang(self, lang_id: str) -> ToyLanguage:
        try:
            return self.languages[lang_id]
        except KeyError:
            raise ConfigError(f"unknown language {lang_id!r}") from None

    def translate(self, tokens, src: str, dst: str) -> tuple[int, ...]:
        """Tokenwise bijection between languages; structural tokens pass through."""
        try:
            get = self.tables[src, dst].get
        except KeyError:
            raise ConfigError(f"unknown language pair {src!r} -> {dst!r}") from None
        return tuple([int(get(t, t)) for t in tokens])

    def classify_language(self, tokens) -> str | None:
        """Majority lexical-range vote; None when empty or tied."""
        counts = {lid: 0 for lid in LANGUAGES}
        for t in tokens:
            for lid, lang in self.languages.items():
                if t in lang.lexical_range:
                    counts[lid] += 1
                    break
        best = max(counts.values())
        if best == 0:
            return None
        winners = [lid for lid, c in counts.items() if c == best]
        return winners[0] if len(winners) == 1 else None

    @property
    def normalization_drop_ids(self) -> frozenset[int]:
        """Punctuation-like tokens removed by text normalization."""
        drop = {PAD, EOS, BOUND}
        for lang in self.languages.values():
            drop.update((lang.ans_open, lang.ans_close))
        return frozenset(drop)


def build_vocab(n_symbols: int = 16, seed: int = 0, size: int = 96) -> Vocab:
    """Lay out the token space for `n_symbols` base symbols per language."""
    needed = LEX_BASE + n_symbols * len(LANGUAGES)
    if needed > size:
        raise ConfigError(f"vocab size {size} too small for {n_symbols} symbols per language ({needed} needed)")
    rng = Rng(seed).split("vocab")
    languages = {}
    for g, lang_id in enumerate(LANGUAGES):
        perm = tuple(int(x) for x in rng.split(lang_id).permutation(n_symbols))
        languages[lang_id] = ToyLanguage(
            id=lang_id,
            perm=perm,
            lex_base=LEX_BASE + g * n_symbols,
            n_symbols=n_symbols,
            q_sqa=_Q_SQA_BASE + g,
            not_answerable=(_NOT_ANSWERABLE_BASE + g,),
            ans_open=_ANS_OPEN_BASE + g,
            ans_close=_ANS_CLOSE_BASE + g,
            q_st=Q_ST_SRC if lang_id == "src" else _Q_ST_BASE + (g - 1),
        )
    tables = {
        (a.id, b.id): {t: b.token_for_symbol(a.symbol_for_token(t)) for t in a.lexical_range}
        for a in languages.values()
        for b in languages.values()
    }
    return Vocab(size=size, languages=languages, tables=tables)
