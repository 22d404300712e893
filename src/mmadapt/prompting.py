"""Prompt rendering: templates and placeholder sizing.

Every rendered instance has the same shape: an opening content tag, the
content block (speech frames or source tokens), a closing tag, a task
question line, the answer-prompt suffix, then the masked target tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Example
from .errors import ContractViolation
from .model import average_frames
from .vocab import ANSWER_PROMPT, EOS, Q_ASR, SPEECH_CLOSE, SPEECH_OPEN, TEXT_CLOSE, TEXT_OPEN, Vocab

MODALITIES = ("speech", "text")


@dataclass(frozen=True)
class PromptedExample:
    id: str
    task: str
    language: str
    validity: str
    modality: str
    prefix_tokens: tuple[int, ...]
    suffix_tokens: tuple[int, ...]
    target_tokens: tuple[int, ...]
    content_tokens: tuple[int, ...] | None = None  # text modality
    frames: np.ndarray | None = field(default=None, repr=False, compare=False)  # averaged, speech modality

    @property
    def content_len(self) -> int:
        return len(self.content_tokens) if self.frames is None else self.frames.shape[0]

    @property
    def prompt_len(self) -> int:
        return len(self.prefix_tokens) + self.content_len + len(self.suffix_tokens)

    def __len__(self) -> int:
        return self.prompt_len + len(self.target_tokens)


def question_line(task: str, language: str, vocab: Vocab, example: Example | None = None) -> tuple[int, ...]:
    """Fixed instruction tokens for ASR/ST/MT; the example's own question for SQA/QA."""
    if task == "ASR":
        return (Q_ASR,)
    if task in ("ST", "MT"):
        return (vocab.lang(language).q_st,)
    if task in ("SQA", "QA"):
        if example is None or example.question_tokens is None:
            raise ContractViolation(f"{task} rendering needs the example's question")
        return tuple(example.question_tokens)
    raise ContractViolation(f"unknown task {task!r}")


def render_prompt(example: Example, modality: str, vocab: Vocab, frame_avg_k: int) -> PromptedExample:
    """Render one example into a prompt with a content block and loss mask."""
    if modality not in MODALITIES:
        raise ContractViolation(f"unknown modality {modality!r}")
    question = question_line(example.task, example.language, vocab, example)
    targets = tuple(example.answer_tokens) + (EOS,)
    if modality == "speech":
        if example.frames is None:
            raise ContractViolation(f"example {example.id} has no frames for speech rendering")
        frames = average_frames(example.frames, frame_avg_k)
        return PromptedExample(
            id=example.id,
            task=example.task,
            language=example.language,
            validity=example.validity,
            modality="speech",
            prefix_tokens=(SPEECH_OPEN,),
            frames=frames,
            suffix_tokens=(SPEECH_CLOSE,) + question + (ANSWER_PROMPT,),
            target_tokens=targets,
        )
    return PromptedExample(
        id=example.id,
        task=example.task,
        language=example.language,
        validity=example.validity,
        modality="text",
        prefix_tokens=(TEXT_OPEN,),
        content_tokens=tuple(example.source_tokens),
        suffix_tokens=(TEXT_CLOSE,) + question + (ANSWER_PROMPT,),
        target_tokens=targets,
    )
