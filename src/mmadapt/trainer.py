"""Optimization and the staged training recipe.

Stages: backbone pretraining on text-rendered tasks (the stand-in for an
instruction-following base model), A = projector-only speech training,
B = adapter-only text training, C = a short joint merge of both on the
interleaved speech+text schedule. The backbone is frozen in A/B/C.

A `StagePlan` names the stage, its trainable components and their
optimizers, and rejects combinations the recipe does not allow. One runner,
`run_stage`, executes any stage on a `Trainer`: the trainer freezes every
component outside `plan.trainable`, steps one AdamW per trainable component
and returns snapshots of those components; `run_stage` adds the stage's dev
metric (MT accuracy while pretraining, ST BLEU in stage A, none in B/C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, Example
from .decode import greedy_decode
from .errors import ConfigError, ContractViolation, TrainingDivergenceError
from .metrics import bleu4, make_default_judge, qa_accuracy, sequence_accuracy
from .model import Backbone, LoraAdapters, SpeechProjector, splice_prompt
from .prompting import PromptedExample, render_prompt
from .rng import Rng
from .sampler import SPEECH_TASKS, BatchEntry, SamplerConfig, plan_epoch
from .tensor import Tensor, add, concat, embedding_lookup, grad, masked_cross_entropy, scale, stack, tslice
from .vocab import TARGET_LANGUAGES

# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    scheduler: str = "constant"  # constant | warmup-constant
    warmup_steps: int = 0
    grad_accum: int = 1

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.grad_accum < 1:
            raise ConfigError("grad_accum must be >= 1")
        if self.warmup_steps < 0:
            raise ConfigError("warmup_steps must be >= 0")
        if self.scheduler not in ("constant", "warmup-constant"):
            raise ConfigError(f"unknown scheduler {self.scheduler!r}")


def lr_at(scheduler: str, step: int, base_lr: float, warmup_steps: int) -> float:
    """Learning rate at an optimizer step (constant, or linear warmup then constant)."""
    if step < 0:
        raise ContractViolation("step must be >= 0")
    if scheduler == "constant" or warmup_steps == 0:
        return base_lr
    if scheduler == "warmup-constant":
        return base_lr * min(1.0, step / warmup_steps)
    raise ConfigError(f"unknown scheduler {scheduler!r}")


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments over one
    component's named parameters."""

    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.t = 0
        self.state = {
            "m": {k: np.zeros_like(v.data) for k, v in self.params.items()},
            "v": {k: np.zeros_like(v.data) for k, v in self.params.items()},
        }

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Update every parameter in place from `grads` (same names);
        returns the learning rate used."""
        self.t += 1
        cfg, step = self.cfg, self.t
        b1, b2 = cfg.betas
        lr = lr_at(cfg.scheduler, step, cfg.lr, cfg.warmup_steps)
        for name, p in self.params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise TrainingDivergenceError(f"non-finite gradient for {name}")
            m = self.state["m"][name]
            v = self.state["v"][name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            m_hat = m / (1 - b1**step)
            v_hat = v / (1 - b2**step)
            p.data = p.data - lr * (m_hat / (np.sqrt(v_hat) + cfg.eps) + cfg.weight_decay * p.data)
        return lr

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.state["m"].items()},
            "v": {k: v.copy() for k, v in self.state["v"].items()},
        }

    def load_state_dict(self, sd: dict) -> None:
        self.t = sd["t"]
        self.state = {
            "m": {k: v.copy() for k, v in sd["m"].items()},
            "v": {k: v.copy() for k, v in sd["v"].items()},
        }


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------


def batch_loss(
    backbone: Backbone,
    prompts: list[PromptedExample],
    projector: SpeechProjector | None = None,
    adapters: LoraAdapters | None = None,
    train: bool = False,
    rng: Rng | None = None,
    content_noise: float = 0.0,
) -> Tensor:
    """Masked next-token loss over one padded batch of rendered prompts.

    `content_noise` perturbs text content-block embeddings during training
    (backbone pretraining only); it makes content reading tolerant to the
    inexact embeddings a projector will later splice into the same slots.
    All prompts must share one modality: speech (with frames) or text.
    """
    dtype = backbone.dtype
    d = backbone.cfg.d_model
    speech = {p.frames is not None for p in prompts}
    if len(speech) > 1:
        raise ConfigError("a batch mixes speech and text prompts")
    speech_out = None
    frame_counts = []
    if speech == {True}:
        if projector is None:
            raise ConfigError("speech batch needs a projector")
        frame_counts = [p.frames.shape[0] for p in prompts]
        m_max = max(frame_counts)
        fr = np.zeros((len(prompts), m_max, projector.cfg.d_in), dtype=projector.dtype)
        pad = np.zeros((len(prompts), 1, m_max), dtype=np.float32)
        for i, p in enumerate(prompts):
            fr[i, : frame_counts[i]] = p.frames
            pad[i, 0, frame_counts[i] :] = -1e9
        speech_out = projector.forward(
            Tensor(fr),
            train=train,
            rng=rng.split("projector") if rng is not None else None,
            pad_mask=pad if len(set(frame_counts)) > 1 else None,
        )
    noisy = train and content_noise > 0.0 and prompts[0].content_tokens is not None
    if noisy and rng is None:
        raise ConfigError("content noise needs an rng")
    spliced = []
    for i, p in enumerate(prompts):
        content_block = None
        prefix = list(p.prefix_tokens)
        if speech_out is not None:
            content_block = tslice(speech_out, (i, slice(0, frame_counts[i]), slice(None)))
        elif noisy:
            ids = np.asarray(p.content_tokens, dtype=np.int64)
            clean = embedding_lookup(backbone.params["wte"], ids)
            noise = content_noise * rng.split("noise", p.id).normal(size=(len(ids), d))
            content_block = add(clean, Tensor(noise.astype(dtype)))
        elif p.content_tokens:
            prefix += list(p.content_tokens)
        spliced.append(
            splice_prompt(
                backbone.params["wte"],
                prefix,
                content_block,
                list(p.suffix_tokens),
                list(p.target_tokens),
                backbone.cfg.max_seq_len,
            )
        )
    lengths = [len(sp.token_ids) for sp in spliced]
    l_max = max(lengths)
    embs = []
    ids = np.full((len(prompts), l_max), -1, dtype=np.int64)
    mask = np.zeros((len(prompts), l_max), dtype=bool)
    for i, sp in enumerate(spliced):
        e = sp.embeddings
        if lengths[i] < l_max:
            e = concat([e, Tensor(np.zeros((l_max - lengths[i], d), dtype=dtype))], axis=0)
        embs.append(e)
        ids[i, : lengths[i]] = sp.token_ids
        mask[i, : lengths[i]] = sp.loss_mask
    emb = stack(embs, axis=0)
    logits = backbone.forward(emb, np.arange(l_max), lora=adapters)
    labels = np.full_like(ids, 0)
    labels[:, :-1] = ids[:, 1:]
    label_mask = np.zeros_like(mask)
    label_mask[:, :-1] = mask[:, 1:]
    return masked_cross_entropy(logits, np.where(label_mask, labels, 0), label_mask)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainLogRecord:
    step: int
    task: str
    modality: str
    loss: float
    lr: float


@dataclass
class EvalRecord:
    step: int
    metric: float
    details: dict = field(default_factory=dict)


STAGES = ("pretrain", "A", "B", "C")
COMPONENTS = ("backbone", "projector", "lora")


@dataclass
class StagePlan:
    stage: str  # pretrain | A | B | C
    trainable: tuple[str, ...]
    sampler: SamplerConfig
    optimizers: dict[str, OptimizerConfig]
    max_steps: int
    eval_every: int = 50
    selection: str = "last"  # last | best-st-bleu
    dev_examples: int = 12  # per language/task during in-training evals
    max_new_tokens: int = 16
    content_noise: float = 0.0  # text content-embedding noise (pretraining)

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")
        if self.stage == "pretrain" and not self.sampler.text_mode:
            raise ConfigError("backbone pretraining runs on text-rendered batches")
        if self.stage != "pretrain" and "backbone" in self.trainable:
            raise ConfigError("the backbone is frozen after pretraining")
        if self.stage == "B" and not self.sampler.text_mode and any(t in self.sampler.task_ratios for t in SPEECH_TASKS):
            raise ConfigError("adapter training is text-only")
        if self.stage == "C":
            if set(self.trainable) != {"projector", "lora"}:
                raise ConfigError("the merge stage trains projector and adapters")
            lrs = {c: self.optimizers[c].lr for c in ("projector", "lora")}
            if len(set(lrs.values())) != 2:
                raise ConfigError("merge stage needs distinct per-component learning rates")
        for c in self.trainable:
            if c not in self.optimizers:
                raise ConfigError(f"trainable component {c!r} has no optimizer config")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")


class Trainer:
    """Drives one stage: schedules epochs, renders batches, accumulates
    gradients and steps one optimizer per trainable component."""

    def __init__(
        self,
        backbone: Backbone,
        corpus: Corpus,
        frame_avg_k: int,
        projector: SpeechProjector | None = None,
        adapters: LoraAdapters | None = None,
    ):
        self.backbone = backbone
        self.corpus = corpus
        self.frame_avg_k = frame_avg_k
        self.projector = projector
        self.adapters = adapters
        self._index: dict[tuple[str, str, str], dict[str, Example]] = {}
        self._render_cache: dict[tuple[str, str], PromptedExample] = {}

    def _example(self, entry: BatchEntry, ex_id: str) -> Example:
        key = (entry.task, entry.language, entry.validity)
        if key not in self._index:
            pool = self.corpus.splits[(entry.task, entry.language, entry.validity, "train")]
            self._index[key] = {e.id: e for e in pool}
        return self._index[key][ex_id]

    def render_batch(self, entry: BatchEntry) -> list[PromptedExample]:
        prompts = []
        for ex_id in entry.example_ids:
            cache_key = (ex_id, entry.modality)
            p = self._render_cache.get(cache_key)
            if p is None:
                p = render_prompt(self._example(entry, ex_id), entry.modality, self.corpus.vocab, self.frame_avg_k)
                self._render_cache[cache_key] = p
            prompts.append(p)
        return prompts

    def _components(self) -> dict:
        attached = zip(COMPONENTS, (self.backbone, self.projector, self.adapters))
        return {c: obj for c, obj in attached if obj is not None}

    def component_params(self, component: str) -> dict[str, Tensor]:
        if component not in COMPONENTS:
            raise ConfigError(f"unknown component {component!r}")
        obj = self._components().get(component)
        if obj is None:
            raise ConfigError(f"no {component} attached")
        return obj.param_dict()

    def run(self, plan: StagePlan, rng: Rng, eval_fn=None) -> tuple[list[TrainLogRecord], list[EvalRecord], dict]:
        """Train until `plan.max_steps` primary entries are consumed.

        Every attached component outside `plan.trainable` is frozen; each
        trainable one must be attached. Gradients are averaged over windows
        of `grad_accum` micro-batches; a last, partial window at
        `max_steps` is applied as the mean over the micro-batches it holds.
        Returns (train log, eval records, snapshots) where snapshots maps
        each trainable component name -> parameter arrays for the selected
        checkpoint.
        """
        if eval_fn is not None and not (0 < plan.eval_every <= plan.max_steps):
            raise ConfigError("dev evaluation cadence does not fit the step budget")
        params = {c: self.component_params(c) for c in plan.trainable}
        for c, obj in self._components().items():
            obj.set_trainable(c in plan.trainable)
        optimizers = {c: AdamW(params[c], plan.optimizers[c]) for c in plan.trainable}
        param_list = [t for ps in params.values() for t in ps.values()]
        accums = {plan.optimizers[c].grad_accum for c in plan.trainable}
        if len(accums) != 1:
            raise ConfigError("trainable components must share one accumulation window")
        accum = accums.pop()

        pools = self.corpus.sampler_pools("train")
        log: list[TrainLogRecord] = []
        evals: list[EvalRecord] = []
        best: tuple[float, dict] | None = None
        train_rng = rng.split("train")
        buffers: dict[str, dict[str, np.ndarray]] | None = None  # component -> name -> summed gradient
        micro = 0
        primary_done = 0
        epoch = 0
        while primary_done < plan.max_steps:
            schedule = plan_epoch(plan.sampler, pools, rng.split(f"epoch{epoch}"))
            groups: list[list[BatchEntry]] = []
            for e in schedule.entries:
                if e.interleaved:
                    groups[-1].append(e)
                else:
                    groups.append([e])
            for group in groups:
                last_step = primary_done + 1 == plan.max_steps
                for j, entry in enumerate(group):
                    prompts = self.render_batch(entry)
                    loss = batch_loss(
                        self.backbone,
                        prompts,
                        projector=self.projector,
                        adapters=self.adapters,
                        train=True,
                        rng=train_rng.split(f"s{primary_done}", entry.task, entry.modality),
                        content_noise=plan.content_noise,
                    )
                    loss_val = float(loss.data)
                    if not np.isfinite(loss_val):
                        raise TrainingDivergenceError(f"loss diverged at step {primary_done}")
                    grads = grad(scale(loss, 1.0 / accum), param_list)
                    if buffers is None:
                        buffers = {c: {name: grads[t].data for name, t in ps.items()} for c, ps in params.items()}
                    else:
                        for c, ps in params.items():
                            for name, t in ps.items():
                                buffers[c][name] += grads[t].data
                    # Drop this micro-batch's graph before the next forward builds one.
                    del loss, grads
                    micro += 1
                    if micro == accum or (last_step and j == len(group) - 1):
                        for c, opt in optimizers.items():
                            if micro < accum:
                                for g in buffers[c].values():
                                    g *= accum / micro
                            lr_now = opt.step(buffers[c])
                        buffers, micro = None, 0
                    else:
                        lr_now = float("nan")
                    log.append(
                        TrainLogRecord(
                            step=primary_done,
                            task=entry.task,
                            modality=entry.modality,
                            loss=loss_val,
                            lr=lr_now,
                        )
                    )
                primary_done += 1
                if eval_fn is not None and primary_done % plan.eval_every == 0:
                    metric, details = eval_fn()
                    evals.append(EvalRecord(step=primary_done, metric=metric, details=details))
                    if plan.selection == "best-st-bleu" and (best is None or metric > best[0]):
                        best = (metric, self._snapshots(plan.trainable))
                if primary_done >= plan.max_steps:
                    break
            epoch += 1
        if plan.selection == "best-st-bleu":
            if eval_fn is None or not evals:
                raise ConfigError("checkpoint selection needs dev evaluations")
            snapshots = best[1]
        else:
            snapshots = self._snapshots(plan.trainable)
        return log, evals, snapshots

    def _snapshots(self, components) -> dict[str, dict[str, np.ndarray]]:
        out = {}
        for c in components:
            out[c] = {k: v.data.copy() for k, v in self.component_params(c).items()}
        return out


# ---------------------------------------------------------------------------
# evaluation helpers used for selection and dev tracking
# ---------------------------------------------------------------------------


def decode_examples(
    backbone: Backbone,
    corpus: Corpus,
    task: str,
    language: str,
    modality: str,
    frame_avg_k: int,
    projector: SpeechProjector | None = None,
    adapters: LoraAdapters | None = None,
    validity: str = "valid",
    part: str = "dev",
    max_examples: int | None = None,
    max_new_tokens: int = 16,
) -> tuple[list[Example], list[list[int]]]:
    pool = corpus.splits[(task, language, validity, part)]
    if max_examples is not None:
        pool = pool[:max_examples]
    outputs = []
    for ex in pool:
        prompt = render_prompt(ex, modality, corpus.vocab, frame_avg_k)
        outputs.append(
            greedy_decode(backbone, prompt, max_new_tokens, projector=projector, adapters=adapters)
        )
    return list(pool), outputs


def st_dev_bleu(backbone, corpus, frame_avg_k, projector, adapters=None, max_examples=12, max_new_tokens=16) -> tuple[float, dict]:
    """Mean sentence BLEU over the speech-translation dev split, averaged
    across target languages (the stage-A selection metric)."""
    per_lang = {}
    for lang in TARGET_LANGUAGES:
        exs, outs = decode_examples(
            backbone, corpus, "ST", lang, "speech", frame_avg_k,
            projector=projector, adapters=adapters,
            max_examples=max_examples, max_new_tokens=max_new_tokens,
        )
        scores = [bleu4([tuple(e.answer_tokens)], tuple(o)) for e, o in zip(exs, outs)]
        per_lang[lang] = float(np.mean(scores)) if scores else 0.0
    return float(np.mean(list(per_lang.values()))), per_lang


def task_dev_accuracy(backbone, corpus, task, language, modality, frame_avg_k, projector=None, adapters=None, max_examples=24, max_new_tokens=16) -> float:
    exs, outs = decode_examples(
        backbone, corpus, task, language, modality, frame_avg_k,
        projector=projector, adapters=adapters,
        max_examples=max_examples, max_new_tokens=max_new_tokens,
    )
    return sequence_accuracy([tuple(e.answer_tokens) for e in exs], [tuple(o) for o in outs])


def sqa_dev_accuracy(backbone, corpus, languages, frame_avg_k, projector=None, adapters=None, modality="speech", task="SQA", max_examples=16, max_new_tokens=16, include_invalid=True) -> float:
    judge = make_default_judge(corpus.vocab)
    all_ex: list[Example] = []
    all_out: list[list[int]] = []
    for lang in languages:
        validities = ("valid", "invalid") if include_invalid else ("valid",)
        for validity in validities:
            exs, outs = decode_examples(
                backbone, corpus, task, lang, modality, frame_avg_k,
                projector=projector, adapters=adapters, validity=validity,
                max_examples=max_examples, max_new_tokens=max_new_tokens,
            )
            all_ex.extend(exs)
            all_out.extend(outs)
    return qa_accuracy(all_ex, all_out, judge)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def run_stage(plan: StagePlan, trainer: Trainer, rng: Rng) -> tuple[list[TrainLogRecord], list[EvalRecord], dict]:
    """Run one stage of the recipe on `trainer`'s components.

    The dev metric follows `plan.stage`: mean MT exact match across target
    languages while pretraining, mean ST BLEU in stage A (the metric that
    `best-st-bleu` selects on), none in stages B and C. Returns (train log,
    eval records, snapshots of the `plan.trainable` components).
    """
    bb, corpus, k = trainer.backbone, trainer.corpus, trainer.frame_avg_k
    models = {"projector": trainer.projector, "adapters": trainer.adapters}
    limits = {"max_examples": plan.dev_examples, "max_new_tokens": plan.max_new_tokens}

    def mt_accuracy():
        accs = [task_dev_accuracy(bb, corpus, "MT", lang, "text", k, **models, **limits) for lang in TARGET_LANGUAGES]
        return float(np.mean(accs)), {"mt_acc": dict(zip(TARGET_LANGUAGES, accs))}

    def st_bleu():
        mean_bleu, per_lang = st_dev_bleu(bb, corpus, k, **models, **limits)
        return mean_bleu, {"st_bleu": per_lang}

    eval_fn = {"pretrain": mt_accuracy, "A": st_bleu}.get(plan.stage)
    return trainer.run(plan, rng, eval_fn=eval_fn)
