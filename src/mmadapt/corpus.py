"""Synthetic multimodal corpus generation and preprocessing.

Sentences are token sequences in the source language; "speech" is a frame
sequence derived from per-token acoustic codes plus noise. QA contexts are
short fact lists whose anchors are theme-partitioned, so mismatching the
question's theme makes an example deterministically unanswerable.

Generation writes every example in its final form, a valid SQA/QA answer
already wrapped in its language's answer-sentence tokens, except for two
controlled kinds of mess: duplicate questions and answer spans that cross
a sentence boundary. `build_corpus` generates each split, removes that
mess (`dedup_answers`), carves the validation themes (`carve_validation`)
and makes a fixed fraction of each SQA/QA split unanswerable
(`make_invalid_split`).

One `build_corpus` call draws each shared source once (`draw_pools`): the
ASR sentence pool, one sentence pool per target language that its ST and
MT splits both read, and one context list that all eight SQA/QA splits
read. Nothing is cached across calls: a second build draws them again.

Speech frames are synthesized on first read. A speech example holds an
`Utterance`, which synthesizes its frames the first time they are read and
keeps them; every example of one utterance shares one holder. Each
utterance draws its noise from its own label-addressed stream, so the
order of reads changes no value. The frames live as long as the corpus
that holds them: a second build synthesizes them again.
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

# The shape of the generated data.
N_SYMBOLS = 16  # lexical symbols per language
N_THEMES = 4
ANCHORS_PER_THEME = 3
N_ANCHOR_SYMBOLS = N_THEMES * ANCHORS_PER_THEME  # the first symbols; the rest are payload
PAYLOAD_SYMBOLS = tuple(range(N_ANCHOR_SYMBOLS, N_SYMBOLS))
SENTENCE_LEN = (4, 6)  # ASR/ST/MT source length (inclusive)
FACTS_PER_CONTEXT = (2, 3)  # at most ANCHORS_PER_THEME
PAYLOAD_PER_FACT = 2  # answer span length
FILLER_PER_SLOT = (0, 2)  # distractor tokens before each fact
D_SPEECH = 32  # frame width
OFFSET_SCALE = 0.1  # scale of the within-token frame offsets
INVALID_FRACTION = 0.2  # QA/SQA examples made unanswerable per split


def theme_anchors(theme: int) -> list[int]:
    """The anchor symbols of `theme`."""
    base = theme * ANCHORS_PER_THEME
    return list(range(base, base + ANCHORS_PER_THEME))


@dataclass(frozen=True)
class CorpusConfig:
    n_sentences: int = 1200  # per sentence pool: ASR's, and each target language's (ST and MT)
    n_contexts: int = 240  # QA contexts, shared across languages
    duplicate_fraction: float = 0.05  # duplicated QA pairs (cleaned by dedup)
    crossing_fraction: float = 0.15  # QA spans split across a boundary (cleaned)
    k_up: int = 3  # frames emitted per token
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.k_up < 1:
            raise ConfigError("k_up must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")


@dataclass(frozen=True)
class Example:
    """One task example. A speech task's example holds its `Utterance`,
    whose frames are synthesized when `frames` is first read."""

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
    speech: Utterance | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if (self.speech is not None) and self.task not in SPEECH_TASKS:
            raise ContractViolation(f"{self.task} examples carry no speech")
        if self.validity == "invalid" and self.task not in ("SQA", "QA"):
            raise ContractViolation("only SQA/QA examples can be invalid")

    @property
    def frames(self) -> np.ndarray | None:
        """The (T, D_SPEECH) speech frames, synthesized on first read; None
        for an example without speech."""
        return None if self.speech is None else self.speech.frames


# ---------------------------------------------------------------------------
# speech synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcousticCode:
    """Fixed per-token code vectors plus within-token position offsets."""

    code: np.ndarray  # (vocab, d_speech)
    offsets: np.ndarray  # (k_up, d_speech)


def make_acoustic_code(vocab_size: int, cfg: CorpusConfig, rng: Rng) -> AcousticCode:
    code = rng.split("code").normal(size=(vocab_size, D_SPEECH)).astype(np.float32)
    offsets = (OFFSET_SCALE * rng.split("offsets").normal(size=(cfg.k_up, D_SPEECH))).astype(np.float32)
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
    # (n, 1, d) + (k_up, d) -> (n, k_up, d), flattened token by token
    frames = (base[:, None, :] + acoustic.offsets).reshape(-1, base.shape[1])
    if cfg.noise_sigma > 0:
        frames = frames + cfg.noise_sigma * rng.normal(size=frames.shape)
    return frames.astype(np.float32)


@dataclass(eq=False, slots=True)
class Utterance:
    """One utterance's frames, synthesized on first read and then kept,
    read-only, for every example that holds it.

    The noise stream is `rng.split(*labels)`, derived only when the frames
    are first read.
    """

    tokens: tuple[int, ...]
    acoustic: AcousticCode
    cfg: CorpusConfig
    rng: Rng
    labels: tuple[str, ...]
    _frames: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def frames(self) -> np.ndarray:
        if self._frames is None:
            frames = synthesize_frames(self.tokens, self.acoustic, self.cfg, self.rng.split(*self.labels))
            frames.flags.writeable = False
            self._frames = frames
        return self._frames


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def _gen_sentences(vocab: Vocab, rng: Rng, n: int) -> list[tuple[int, ...]]:
    src = vocab.lang("src")
    lo, hi = SENTENCE_LEN
    out = []
    for i in range(n):
        r = rng.split(str(i))
        length = int(r.integers(lo, hi + 1))
        symbols = r.integers(0, N_SYMBOLS, size=length)
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
    f_lo, f_hi = FACTS_PER_CONTEXT
    for c in range(cfg.n_contexts):
        r = rng.split(str(c))
        theme = c % N_THEMES
        anchors = theme_anchors(theme)
        r.shuffle(anchors)
        n_facts = int(r.integers(f_lo, f_hi + 1))
        tokens: list[int] = []
        questions = []
        for f, anchor in enumerate(anchors[:n_facts]):
            if f > 0:
                tokens.append(BOUND)
            n_filler = int(r.integers(FILLER_PER_SLOT[0], FILLER_PER_SLOT[1] + 1))
            for s in r.choice(PAYLOAD_SYMBOLS, size=n_filler, replace=True):
                tokens.append(src.token_for_symbol(int(s)))
            cross = r.uniform() < cfg.crossing_fraction
            tokens.append(src.token_for_symbol(anchor))
            start = len(tokens)
            payload_syms = r.choice(PAYLOAD_SYMBOLS, size=PAYLOAD_PER_FACT, replace=True)
            for j, p in enumerate(payload_syms):
                if cross and j == 1:
                    tokens.append(BOUND)
                tokens.append(src.token_for_symbol(int(p)))
            questions.append((anchor, (start, start + PAYLOAD_PER_FACT + (1 if cross else 0))))
        yield theme, tuple(tokens), questions


@dataclass(frozen=True)
class Pools:
    """The sources that several splits share, drawn once per build."""

    sentences: dict[str, list[tuple[int, ...]]]  # "src": ASR; a target language: its ST and MT
    contexts: list[tuple[int, tuple[int, ...], list]]  # every SQA/QA split, in every language


def draw_pools(cfg: CorpusConfig, vocab: Vocab) -> Pools:
    """Draw every shared source of the corpus `cfg` describes, once."""
    root = Rng(cfg.seed)
    keys = {lang: "sentences-asr" if lang == "src" else f"sentences-{lang}" for lang in LANGUAGES}
    sentences = {lang: _gen_sentences(vocab, root.split(key), cfg.n_sentences) for lang, key in keys.items()}
    return Pools(sentences=sentences, contexts=list(_gen_contexts(cfg, vocab, root.split("contexts"))))


def gen_task_dataset(
    task: str,
    language: str,
    cfg: CorpusConfig,
    rng: Rng,
    vocab: Vocab,
    acoustic: AcousticCode,
    pools: Pools,
) -> list[Example]:
    """Assemble one task/language split, deterministic in (cfg.seed, rng path).

    `vocab`, `acoustic` and `pools` are the corpus's own (`build_corpus`
    derives them once from `cfg`). ASR reads `pools.sentences["src"]`; ST
    and MT for a target language both read that language's sentence pool;
    SQA and QA in every language read `pools.contexts`, with questions and
    answers translated. Their answers come out in fluent form: the span
    between the language's `ans_open` and `ans_close`. `rng` draws only
    what is the split's own: speech noise and duplicated questions.

    A speech example holds an `Utterance`, not frames: they are synthesized
    when first read. All questions of one SQA context share its holder.
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
        for i, source in enumerate(pools.sentences[language]):
            answer = source if task == "ASR" else vocab.translate(source, "src", language)
            ex_id = f"{task.lower()}-{language}-{i:05d}"
            utterance = Utterance(source, acoustic, cfg, rng, ("frames", ex_id)) if speech else None
            examples.append(
                Example(
                    id=ex_id,
                    theme_id=i % N_THEMES,
                    task=task,
                    language=language,
                    source_tokens=source,
                    answer_tokens=answer,
                    speech=utterance,
                )
            )
        return examples

    dup_rng = rng.split("dups")
    i = 0
    for theme, context, questions in pools.contexts:
        utterance = Utterance(context, acoustic, cfg, rng, ("frames", f"ctx-{language}-{i}")) if speech else None
        for anchor, (start, end) in questions:
            q = (lang.q_sqa, lang.token_for_symbol(anchor))
            answer = (lang.ans_open, *vocab.translate(context[start:end], "src", language), lang.ans_close)
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
                        speech=utterance,
                    )
                )
                i += 1
    return examples


# ---------------------------------------------------------------------------
# preprocessing passes
# ---------------------------------------------------------------------------


def dedup_answers(examples: list[Example]) -> list[Example]:
    """Drop exact-duplicate (question, answer) pairs per context, and drop
    questions whose answer span crosses a sentence-boundary marker. Every
    example is a freshly generated SQA/QA one, with a question and a span."""
    seen: set[tuple] = set()
    out = []
    for ex in examples:
        i, j = ex.span
        if BOUND in ex.source_tokens[i:j]:
            continue
        key = (ex.source_tokens, ex.question_tokens, ex.answer_tokens)
        if key in seen:
            continue
        seen.add(key)
        out.append(ex)
    return out


def carve_validation(examples: list[Example]) -> tuple[list[Example], list[Example]]:
    """Split off the first `CARVE_THEMES` themes as the validation set."""
    themes = sorted({ex.theme_id for ex in examples})
    if CARVE_THEMES >= len(themes):
        raise ConfigError(f"cannot carve {CARVE_THEMES} of {len(themes)} themes")
    held = set(themes[:CARVE_THEMES])
    train = [ex for ex in examples if ex.theme_id not in held]
    val = [ex for ex in examples if ex.theme_id in held]
    return train, val


def _round_half_down(x: float) -> int:
    base = int(np.floor(x))
    return base + (1 if (x - base) > 0.5 else 0)


def make_invalid_split(examples: list[Example], rng: Rng, vocab: Vocab) -> list[Example]:
    """Mismatch question and context themes for `INVALID_FRACTION` of the
    examples; their answers become the language's not-answerable sequence.
    Every example must be in one language, so a donor question is too."""
    languages = {ex.language for ex in examples}
    if len(languages) > 1:
        raise ContractViolation(f"an invalid split draws on one language, got {sorted(languages)}")
    themes = {ex.theme_id for ex in examples}
    if len(themes) < 2:
        raise ConfigError("invalid split needs at least two themes")
    n = _round_half_down(len(examples) * INVALID_FRACTION)
    order = rng.split("pick").permutation(len(examples))
    chosen = set(int(i) for i in order[:n])
    out = list(examples)
    donor_rng = rng.split("donor")
    donors_of = {t: [d for d in examples if d.theme_id != t] for t in themes}
    for idx in sorted(chosen):
        ex = out[idx]
        donors = donors_of[ex.theme_id]
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


# ---------------------------------------------------------------------------
# corpus assembly
# ---------------------------------------------------------------------------


@dataclass
class Corpus:
    cfg: CorpusConfig
    vocab: Vocab
    acoustic: AcousticCode
    splits: dict[tuple[str, str, str, str], list[Example]]  # (task, lang, validity, part)

    def sampler_pools(self) -> dict[tuple[str, str, str], list[Example]]:
        """The non-empty train splits, keyed by (task, lang, validity)."""
        return {
            (task, lang, validity): exs
            for (task, lang, validity, part), exs in self.splits.items()
            if part == "train" and exs
        }


def build_corpus(cfg: CorpusConfig) -> Corpus:
    """Generate, dedup, carve and corrupt every task/language split.

    The shared sources are drawn once per call (`draw_pools`) and read by
    every split built from them; a second call draws them again.
    """
    vocab = build_vocab(N_SYMBOLS, cfg.seed)
    root = Rng(cfg.seed)
    acoustic = make_acoustic_code(vocab.size, cfg, root.split("acoustic"))
    pools = draw_pools(cfg, vocab)
    splits: dict[tuple[str, str, str, str], list[Example]] = {}

    def put(task, lang, validity, part, exs):
        splits[(task, lang, validity, part)] = exs

    # ASR / ST / MT: generate, carve validation by theme.
    for task, langs in (("ASR", ("src",)), ("ST", TARGET_LANGUAGES), ("MT", TARGET_LANGUAGES)):
        for lang in langs:
            exs = gen_task_dataset(task, lang, cfg, root.split("gen", task, lang), vocab, acoustic, pools)
            train, val = carve_validation(exs)
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

    # SQA / QA: dedup, carve, then make a fixed fraction unanswerable.
    for task in ("SQA", "QA"):
        for lang in LANGUAGES:
            exs = gen_task_dataset(task, lang, cfg, root.split("gen", task, lang), vocab, acoustic, pools)
            for part, pool in zip(("train", "dev"), carve_validation(dedup_answers(exs))):
                pool = make_invalid_split(pool, root.split("invalid", task, lang, part), vocab)
                for validity in ("valid", "invalid"):
                    put(task, lang, validity, part, [ex for ex in pool if ex.validity == validity])

    return Corpus(cfg=cfg, vocab=vocab, acoustic=acoustic, splits=splits)
