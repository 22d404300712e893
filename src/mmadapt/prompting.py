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


def question_line(example: Example, vocab: Vocab) -> tuple[int, ...]:
    """Fixed instruction tokens for ASR/ST/MT; the example's own question for SQA/QA."""
    task = example.task
    if task == "ASR":
        return (Q_ASR,)
    if task in ("ST", "MT"):
        return (vocab.lang(example.language).q_st,)
    if task in ("SQA", "QA"):
        if example.question_tokens is None:
            raise ContractViolation(f"{task} rendering needs the example's question")
        return tuple(example.question_tokens)
    raise ContractViolation(f"unknown task {task!r}")


def render_prompt(example: Example, modality: str, vocab: Vocab, frame_avg_k: int) -> PromptedExample:
    """Render one example into a prompt of the module docstring's shape. The
    modalities differ only in their tags and content: averaged frames or source tokens."""
    if modality not in MODALITIES:
        raise ContractViolation(f"unknown modality {modality!r}")
    frames = content = None
    if modality == "speech":
        if example.frames is None:
            raise ContractViolation(f"example {example.id} has no frames for speech rendering")
        frames = average_frames(example.frames, frame_avg_k)
        open_tag, close_tag = SPEECH_OPEN, SPEECH_CLOSE
    else:
        content = tuple(example.source_tokens)
        open_tag, close_tag = TEXT_OPEN, TEXT_CLOSE
    return PromptedExample(
        id=example.id,
        task=example.task,
        language=example.language,
        validity=example.validity,
        modality=modality,
        prefix_tokens=(open_tag,),
        content_tokens=content,
        frames=frames,
        suffix_tokens=(close_tag,) + question_line(example, vocab) + (ANSWER_PROMPT,),
        target_tokens=tuple(example.answer_tokens) + (EOS,),
    )
