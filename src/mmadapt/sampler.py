"""Two-level interleaved batch scheduling.

An epoch is X steps. Each step draws a task by the task-level ratios, then
a (language, validity) split by the within-task ratios, and fills its
primary batch from that split's shuffled without-replacement cursor. A
batch holds the examples it drew, so a step goes from split to prompt with
no lookup. When a drawn speech task has a text equivalent (ST -> MT,
SQA -> QA), the step also holds a text batch from the same language-split,
interleaved right after the primary one; interleaved batches do not count
toward X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import SPEECH_TASKS, Example
from .errors import ConfigError
from .rng import Rng

TEXT_EQUIVALENT = {"ST": "MT", "SQA": "QA"}

SplitKey = tuple[str, str]  # (language, validity)


@dataclass(frozen=True)
class SamplerConfig:
    task_ratios: dict[str, float]
    split_ratios: dict[str, dict[SplitKey, float]]
    batch_size: int = 16
    epoch_steps: int | None = None  # X; derived from the data when None
    interleave_text: bool = True
    text_mode: bool = False  # render every entry in the text modality

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        _check_ratio_group("task_ratios", self.task_ratios)
        for task, group in self.split_ratios.items():
            _check_ratio_group(f"split_ratios[{task}]", group)
        for task, p in self.task_ratios.items():
            if p > 0 and task not in self.split_ratios:
                raise ConfigError(f"task {task!r} has ratio {p} but no split ratios")

    def task_batch_size(self, task: str) -> int:
        """Examples in a batch of `task`: `batch_size` for every task. Kept as
        a method because the benchmark counts each step's prompts through it."""
        return self.batch_size


def _check_ratio_group(name: str, group: dict) -> None:
    if not group:
        raise ConfigError(f"{name} is empty")
    total = sum(group.values())
    if any(v < 0 for v in group.values()):
        raise ConfigError(f"{name} has negative entries")
    if not abs(total - 1.0) <= 1e-9:  # NaN fails too
        raise ConfigError(f"{name} sums to {total!r}, expected 1")


@dataclass(frozen=True)
class BatchEntry:
    """One batch: its split, the modality to render it in and its examples."""

    task: str
    language: str
    validity: str
    modality: str
    examples: tuple[Example, ...]
    interleaved: bool = False


@dataclass
class BatchSchedule:
    """One epoch's steps in order: each is its primary batch, then its
    interleaved text batch if it has one."""

    steps: list[tuple[BatchEntry, ...]]

    @property
    def entries(self) -> list[BatchEntry]:
        """Every batch of every step, in training order."""
        return [e for step in self.steps for e in step]

    def to_manifest_lines(self) -> list[str]:
        return [
            json.dumps(
                {
                    "task": e.task,
                    "language": e.language,
                    "validity": e.validity,
                    "modality": e.modality,
                    "interleaved": e.interleaved,
                    "ids": [ex.id for ex in e.examples],
                }
            )
            for e in self.entries
        ]


class _Cursor:
    """Shuffled without-replacement iteration over one split's own list,
    reshuffled on exhaustion."""

    def __init__(self, examples: list[Example], rng: Rng):
        self.examples = examples
        self.rng = rng
        self.order = list(rng.split("init").permutation(len(examples)))
        self.pos = 0
        self.cycle = 0

    def take(self, n: int) -> tuple[Example, ...]:
        out = []
        while len(out) < n:
            if self.pos >= len(self.order):
                self.cycle += 1
                self.order = list(self.rng.split(f"cycle{self.cycle}").permutation(len(self.examples)))
                self.pos = 0
            out.append(self.examples[self.order[self.pos]])
            self.pos += 1
        return tuple(out)


def _draw(rng_value: float, group: list[tuple]) -> tuple:
    acc = 0.0
    for key, p in group:
        acc += p
        if rng_value < acc:
            return key
    return group[-1][0]


def plan_epoch(cfg: SamplerConfig, datasets: dict[tuple[str, str, str], list[Example]], rng: Rng, max_steps: int) -> BatchSchedule:
    """Plan the first `max_steps` steps of one epoch over `datasets` keyed by
    (task, language, validity), or the whole epoch if it is shorter.

    Step i draws from `rng.split("draw").split(str(i))` and cursors advance
    in step order, so a shorter plan is the prefix of a longer one. Only the
    splits the plan draws from are read.
    """
    active: dict[str, list[tuple[SplitKey, float]]] = {}
    for task, p_task in sorted(cfg.task_ratios.items()):
        if p_task <= 0:
            continue
        group = sorted(cfg.split_ratios[task].items())
        for (lang, validity), p in group:
            if p > 0 and not datasets.get((task, lang, validity)):
                raise ConfigError(f"split ({task}, {lang}, {validity}) has ratio {p} but no data")
        # `_check_ratio_group` makes the group sum to 1 with no negative entry.
        active[task] = [(k, v) for k, v in group if v > 0]

    n_primary = sum(
        len(datasets.get((task, lang, validity), ()))
        for task in active
        for (lang, validity), _ in active[task]
    )
    n_steps = cfg.epoch_steps if cfg.epoch_steps is not None else n_primary // cfg.batch_size
    if n_steps < 1:
        raise ConfigError(f"epoch has no steps (pool of {n_primary} with batch {cfg.batch_size})")

    cursors: dict[tuple[str, str, str], _Cursor] = {}

    def cursor(task: str, lang: str, validity: str) -> _Cursor:
        key = (task, lang, validity)
        if key not in cursors:
            if not datasets.get(key):
                raise ConfigError(f"split {key} has no data")
            cursors[key] = _Cursor(datasets[key], rng.split("cursor", *key))
        return cursors[key]

    task_group = [(t, cfg.task_ratios[t]) for t in active]

    draw_rng = rng.split("draw")
    steps: list[tuple[BatchEntry, ...]] = []
    for i in range(min(n_steps, max_steps)):
        r = draw_rng.split(str(i))
        task = _draw(float(r.uniform()), task_group)
        (lang, validity) = _draw(float(r.uniform()), active[task])
        modality = "text" if (cfg.text_mode or task not in SPEECH_TASKS) else "speech"
        examples = cursor(task, lang, validity).take(cfg.batch_size)
        step = (BatchEntry(task, lang, validity, modality, examples),)
        if cfg.interleave_text and not cfg.text_mode and task in TEXT_EQUIVALENT:
            text_task = TEXT_EQUIVALENT[task]
            text_examples = cursor(text_task, lang, validity).take(cfg.batch_size)
            step += (BatchEntry(text_task, lang, validity, "text", text_examples, interleaved=True),)
        steps.append(step)
    return BatchSchedule(steps=steps)

