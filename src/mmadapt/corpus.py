"""Synthetic multimodal corpus generation and preprocessing.

Sentences are token sequences in the source language; "speech" is a frame
sequence derived from per-token acoustic codes plus noise. QA contexts are
short fact lists whose anchors are theme-partitioned, so mismatching the
question's theme makes an example deterministically unanswerable.

Generation is deliberately messy in controlled ways (duplicate questions,
spans crossing sentence boundaries); the preprocessing passes clean it up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, ContractViolation, VocabularyError
from .rng import Rng
from .vocab import BOUND, LANGUAGES, TARGET_LANGUAGES, Vocab, build_vocab

TASKS = ("ASR", "ST", "MT", "SQA", "QA")
SPEECH_TASKS = ("ASR", "ST", "SQA")
CARVE_THEMES = 2  # themes held out of every task's train split as its dev split


@dataclass(frozen=True)
class CorpusConfig:
    n_symbols: int = 16  # lexical symbols per language
    n_themes: int = 4
    anchors_per_theme: int = 3
    sentence_len: tuple[int, int] = (4, 6)  # ASR/ST/MT source length (inclusive)
    facts_per_context: tuple[int, int] = (2, 3)
    payload_per_fact: int = 2  # answer span length
    filler_per_slot: tuple[int, int] = (0, 2)  # distractor tokens before each fact
    n_sentences: int = 1200  # per ST/MT language pair; ASR uses the same pool
    n_contexts: int = 240  # QA contexts, shared across languages
    duplicate_fraction: float = 0.05  # duplicated QA pairs (cleaned by dedup)
    crossing_fraction: float = 0.15  # QA spans split across a boundary (cleaned)
    invalid_fraction: float = 0.2
    quality_threshold: float = 0.85
    k_up: int = 3  # frames emitted per token
    d_speech: int = 32
    noise_sigma: float = 0.05
    offset_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.k_up < 1:
            raise ConfigError("k_up must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.sentence_len[0] < 1 or self.sentence_len[0] > self.sentence_len[1]:
            raise ConfigError(f"bad sentence_len range {self.sentence_len}")
        if self.n_themes * self.anchors_per_theme >= self.n_symbols:
            raise ConfigError("need at least one payload symbol after theme anchors")
        lo, hi = self.facts_per_context
        if lo < 1 or lo > hi or hi > self.anchors_per_theme:
            raise ConfigError(f"facts_per_context {self.facts_per_context} must fit the theme anchor pool")

    @property
    def n_anchor_symbols(self) -> int:
        return self.n_themes * self.anchors_per_theme

    def theme_anchors(self, theme: int) -> list[int]:
        base = theme * self.anchors_per_theme
        return list(range(base, base + self.anchors_per_theme))

    @property
    def payload_symbols(self) -> list[int]:
        return list(range(self.n_anchor_symbols, self.n_symbols))


@dataclass(frozen=True)
class Example:
    id: str
    theme_id: int
    task: str
    language: str
    source_tokens: tuple[int, ...]  # source-language content (sentence or context)
    answer_tokens: tuple[int, ...]
    question_tokens: tuple[int, ...] | None = None
    validity: str = "valid"
    span: tuple[int, int] | None = None  # QA answer span [i, j) into source_tokens
    question_theme_id: int | None = None
    frames: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if (self.frames is not None) and self.task not in SPEECH_TASKS:
            raise ContractViolation(f"{self.task} examples carry no speech")
        if self.validity == "invalid" and self.task not in ("SQA", "QA"):
            raise ContractViolation("only SQA/QA examples can be invalid")


# ---------------------------------------------------------------------------
# speech synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcousticCode:
    """Fixed per-token code vectors plus within-token position offsets."""

    code: np.ndarray  # (vocab, d_speech)
    offsets: np.ndarray  # (k_up, d_speech)


def make_acoustic_code(vocab_size: int, cfg: CorpusConfig, rng: Rng) -> AcousticCode:
    code = rng.split("code").normal(size=(vocab_size, cfg.d_speech)).astype(np.float32)
    offsets = (cfg.offset_scale * rng.split("offsets").normal(size=(cfg.k_up, cfg.d_speech))).astype(np.float32)
    return AcousticCode(code=code, offsets=offsets)


def synthesize_frames(tokens, acoustic: AcousticCode, cfg: CorpusConfig, rng: Rng) -> np.ndarray:
    """Emit k_up frames per token: code + within-token offset + gaussian noise."""
    tokens = list(tokens)
    if not tokens:
        raise ContractViolation("cannot synthesize frames for an empty token sequence")
    for t in tokens:
        if not 0 <= t < acoustic.code.shape[0]:
            raise VocabularyError(f"token {t} outside the acoustic code table")
    base = acoustic.code[np.asarray(tokens)]  # (n, d)
    frames = np.repeat(base, cfg.k_up, axis=0) + np.tile(acoustic.offsets, (len(tokens), 1))
    if cfg.noise_sigma > 0:
        frames = frames + cfg.noise_sigma * rng.normal(size=frames.shape)
    return frames.astype(np.float32)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def _gen_sentences(cfg: CorpusConfig, vocab: Vocab, rng: Rng, n: int) -> list[tuple[int, ...]]:
    src = vocab.lang("src")
    lo, hi = cfg.sentence_len
    out = []
    for i in range(n):
        r = rng.split(str(i))
        length = int(r.integers(lo, hi + 1))
        symbols = r.integers(0, cfg.n_symbols, size=length)
        out.append(tuple(src.token_for_symbol(int(s)) for s in symbols))
    return out


def _gen_contexts(cfg: CorpusConfig, vocab: Vocab, rng: Rng):
    """Yield (theme, context_tokens, [(anchor_symbol, span)]) triples.

    A context is 2..3 facts [anchor, payload...] joined by boundary tokens,
    with a random number of distractor tokens before each fact so anchor
    positions vary (a fixed-position reading strategy scores at chance).
    A fraction of facts get the boundary moved inside the payload, producing
    spans that cross it (removed later by dedup).
    """
    src = vocab.lang("src")
    payload = cfg.payload_symbols
    f_lo, f_hi = cfg.facts_per_context
    for c in range(cfg.n_contexts):
        r = rng.split(str(c))
        theme = c % cfg.n_themes
        anchors = cfg.theme_anchors(theme)
        r.shuffle(anchors)
        n_facts = int(r.integers(f_lo, f_hi + 1))
        tokens: list[int] = []
        questions = []
        for f, anchor in enumerate(anchors[:n_facts]):
            if f > 0:
                tokens.append(BOUND)
            n_filler = int(r.integers(cfg.filler_per_slot[0], cfg.filler_per_slot[1] + 1))
            for s in r.choice(payload, size=n_filler, replace=True):
                tokens.append(src.token_for_symbol(int(s)))
            cross = r.uniform() < cfg.crossing_fraction
            tokens.append(src.token_for_symbol(anchor))
            start = len(tokens)
            payload_syms = r.choice(payload, size=cfg.payload_per_fact, replace=True)
            for j, p in enumerate(payload_syms):
                if cross and j == 1:
                    tokens.append(BOUND)
                tokens.append(src.token_for_symbol(int(p)))
            questions.append((anchor, (start, start + cfg.payload_per_fact + (1 if cross else 0))))
        yield theme, tuple(tokens), questions


def gen_task_dataset(
    task: str,
    language: str,
    cfg: CorpusConfig,
    rng: Rng,
    vocab: Vocab,
    acoustic: AcousticCode,
) -> list[Example]:
    """Generate one task/language split, deterministic in (cfg.seed, rng path).

    `vocab` and `acoustic` are the corpus's own (`build_corpus` derives them
    once from `cfg`). ST and MT for the same language share source
    sentences; SQA and QA share contexts across all languages (translated
    questions/answers).
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    if task == "ASR" and language != "src":
        raise ConfigError("ASR is source-language only")
    if task in ("ST", "MT") and language not in TARGET_LANGUAGES:
        raise ConfigError(f"{task} requires a target language, got {language!r}")
    if language not in LANGUAGES:
        raise ConfigError(f"unknown language {language!r}")
    speech = task in SPEECH_TASKS
    lang = vocab.lang(language)

    examples: list[Example] = []
    if task in ("ASR", "ST", "MT"):
        # ST/MT share sentences per language; ASR has its own pool.
        pool_key = "sentences-asr" if task == "ASR" else f"sentences-{language}"
        sentences = _gen_sentences(cfg, vocab, Rng(cfg.seed).split(pool_key), cfg.n_sentences)
        for i, source in enumerate(sentences):
            answer = source if task == "ASR" else vocab.translate(source, "src", language)
            ex_id = f"{task.lower()}-{language}-{i:05d}"
            frames = None
            if speech:
                frames = synthesize_frames(source, acoustic, cfg, rng.split("frames", ex_id))
            examples.append(
                Example(
                    id=ex_id,
                    theme_id=i % cfg.n_themes,
                    task=task,
                    language=language,
                    source_tokens=source,
                    answer_tokens=answer,
                    frames=frames,
                )
            )
        return examples

    # SQA / QA: contexts shared across languages, questions/answers translated.
    dup_rng = rng.split("dups")
    i = 0
    for theme, context, questions in _gen_contexts(cfg, vocab, Rng(cfg.seed).split("contexts")):
        frames = None
        if speech:
            frames = synthesize_frames(context, acoustic, cfg, rng.split("frames", f"ctx-{language}-{i}"))
        for anchor, (start, end) in questions:
            q = (lang.q_sqa, lang.token_for_symbol(anchor))
            answer = vocab.translate(context[start:end], "src", language)
            copies = 2 if dup_rng.split(f"{i}").uniform() < cfg.duplicate_fraction else 1
            for _ in range(copies):
                examples.append(
                    Example(
                        id=f"{task.lower()}-{language}-{i:05d}",
                        theme_id=theme,
                        task=task,
                        language=language,
                        source_tokens=context,
                        question_tokens=q,
                        answer_tokens=answer,
                        span=(start, end),
                        frames=frames,
                    )
                )
                i += 1
    return examples


# ---------------------------------------------------------------------------
# preprocessing passes
# ---------------------------------------------------------------------------


def dedup_answers(examples: list[Example]) -> list[Example]:
    """Drop exact-duplicate (question, answer) pairs per context, and drop
    questions whose answer span crosses a sentence-boundary marker."""
    seen: set[tuple] = set()
    out = []
    for ex in examples:
        if ex.question_tokens is None:
            out.append(ex)
            continue
        if ex.span is not None:
            i, j = ex.span
            if any(t == BOUND for t in ex.source_tokens[i:j]):
                continue
        key = (ex.source_tokens, ex.question_tokens, ex.answer_tokens)
        if key in seen:
            continue
        seen.add(key)
        out.append(ex)
    return out


def carve_validation(examples: list[Example], n_themes: int) -> tuple[list[Example], list[Example]]:
    """Split off the first `n_themes` themes as the validation set."""
    themes = sorted({ex.theme_id for ex in examples})
    if n_themes >= len(themes):
        raise ConfigError(f"cannot carve {n_themes} of {len(themes)} themes")
    held = set(themes[:n_themes])
    train = [ex for ex in examples if ex.theme_id not in held]
    val = [ex for ex in examples if ex.theme_id in held]
    return train, val


def _round_half_down(x: float) -> int:
    base = int(np.floor(x))
    return base + (1 if (x - base) > 0.5 else 0)


def make_invalid_split(examples: list[Example], fraction: float, rng: Rng, vocab: Vocab) -> list[Example]:
    """Mismatch question and context themes for a deterministic fraction of
    examples; their answers become the language's not-answerable sequence.
    Every example must be in one language, so a donor question is too."""
    languages = {ex.language for ex in examples}
    if len(languages) > 1:
        raise ContractViolation(f"an invalid split draws on one language, got {sorted(languages)}")
    if fraction == 0:
        return list(examples)
    themes = {ex.theme_id for ex in examples}
    if len(themes) < 2:
        raise ConfigError("invalid split needs at least two themes")
    n = _round_half_down(len(examples) * fraction)
    order = rng.split("pick").permutation(len(examples))
    chosen = set(int(i) for i in order[:n])
    out = list(examples)
    donor_rng = rng.split("donor")
    for idx in sorted(chosen):
        ex = out[idx]
        donors = [d for d in examples if d.theme_id != ex.theme_id and d.question_tokens is not None]
        donor = donors[int(donor_rng.split(str(idx)).integers(0, len(donors)))]
        out[idx] = replace(
            ex,
            question_tokens=donor.question_tokens,
            question_theme_id=donor.theme_id,
            answer_tokens=tuple(vocab.lang(ex.language).not_answerable),
            validity="invalid",
            span=None,
        )
    return out


def default_quality_scorer(vocab: Vocab, language: str):
    """Well-formedness score: fraction of tokens inside the language's image."""
    image = vocab.vocabulary_image(language)

    def score(tokens) -> float:
        tokens = list(tokens)
        if not tokens:
            return 0.0
        return sum(1 for t in tokens if t in image) / len(tokens)

    return score


def quality_filter(examples: list[Example], scorer, threshold: float) -> list[Example]:
    """Keep an example only when question AND answer both clear the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be in [0, 1], got {threshold}")
    out = []
    for ex in examples:
        q = ex.question_tokens if ex.question_tokens is not None else ex.answer_tokens
        if scorer(q) >= threshold and scorer(ex.answer_tokens) >= threshold:
            out.append(ex)
    return out


def fluent_rewrite(example: Example, vocab: Vocab) -> Example:
    """Wrap a valid QA answer in the language's answer-sentence tokens."""
    if example.task not in ("SQA", "QA") or example.validity != "valid":
        raise ContractViolation("fluent rewriting applies to valid SQA/QA examples only")
    lang = vocab.lang(example.language)
    ans = example.answer_tokens
    if len(ans) >= 2 and ans[0] == lang.ans_open and ans[-1] == lang.ans_close:
        return example
    return replace(example, answer_tokens=(lang.ans_open,) + tuple(ans) + (lang.ans_close,))


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    cfg: CorpusConfig
    vocab: Vocab
    acoustic: AcousticCode
    splits: dict[tuple[str, str, str, str], list[Example]]  # (task, lang, validity, part)

    def sampler_pools(self, part: str = "train") -> dict[tuple[str, str, str], list[Example]]:
        return {
            (task, lang, validity): exs
            for (task, lang, validity, p), exs in self.splits.items()
            if p == part and exs
        }


def build_corpus(cfg: CorpusConfig) -> Corpus:
    """Generate, clean, carve, corrupt and rewrite every task/language split."""
    vocab = build_vocab(cfg.n_symbols, cfg.seed)
    root = Rng(cfg.seed)
    acoustic = make_acoustic_code(vocab.size, cfg, root.split("acoustic"))
    splits: dict[tuple[str, str, str, str], list[Example]] = {}

    def put(task, lang, validity, part, exs):
        splits[(task, lang, validity, part)] = exs

    # ASR / ST / MT: generate, carve validation by theme.
    for task, langs in (("ASR", ("src",)), ("ST", TARGET_LANGUAGES), ("MT", TARGET_LANGUAGES)):
        for lang in langs:
            exs = gen_task_dataset(task, lang, cfg, root.split("gen", task, lang), vocab, acoustic)
            train, val = carve_validation(exs, CARVE_THEMES)
            put(task, lang, "valid", "train", train)
            put(task, lang, "valid", "dev", val)

    # Reverse translation (target -> source), used only for backbone
    # pretraining so target-language tokens are also read as content.
    for part in ("train", "dev"):
        reverse = [
            replace(
                ex,
                id=f"mtr-{ex.language}-{ex.id.rsplit('-', 1)[1]}",
                language="src",
                source_tokens=ex.answer_tokens,
                answer_tokens=ex.source_tokens,
            )
            for lang in TARGET_LANGUAGES
            for ex in splits[("MT", lang, "valid", part)]
        ]
        put("MT", "src", "valid", part, reverse)

    # SQA / QA: dedup, carve, invalid split, quality filter, fluent rewrite.
    for task in ("SQA", "QA"):
        for lang in LANGUAGES:
            exs = gen_task_dataset(task, lang, cfg, root.split("gen", task, lang), vocab, acoustic)
            exs = dedup_answers(exs)
            train, val = carve_validation(exs, CARVE_THEMES)
            scorer = default_quality_scorer(vocab, lang)
            for part, pool in (("train", train), ("dev", val)):
                pool = make_invalid_split(pool, cfg.invalid_fraction, root.split("invalid", task, lang, part), vocab)
                pool = quality_filter(pool, scorer, cfg.quality_threshold)
                valid = [ex for ex in pool if ex.validity == "valid"]
                invalid = [ex for ex in pool if ex.validity == "invalid"]
                valid = [fluent_rewrite(ex, vocab) for ex in valid]
                put(task, lang, "valid", part, valid)
                put(task, lang, "invalid", part, invalid)

    return Corpus(cfg=cfg, vocab=vocab, acoustic=acoustic, splits=splits)
