"""Optimization and the staged training recipe.

Stages: backbone pretraining on text-rendered tasks (the stand-in for an
instruction-following base model), A = projector-only speech training,
B = adapter-only text training, C = a short joint merge of both on the
interleaved speech+text schedule. The backbone is frozen in A/B/C.

A `StagePlan` names the stage, its trainable components and their
optimizers, and rejects combinations the recipe does not allow. One runner,
`run_stage`, executes any stage on a `Trainer`: the trainer freezes every
component outside `plan.trainable`, runs the sampler's steps (a primary
batch, then its interleaved text batch if it has one) with one AdamW update
per trainable component on every batch, and returns snapshots of those
components; `run_stage` adds the stage's dev metric from `DEV_METRICS` (MT
accuracy while pretraining, ST BLEU in stage A, none in B/C). A batch's
input is one lookup of a `model.splice_grid` index (`batch_loss`).

Every dev metric (`st_dev_bleu`, `task_dev_accuracy`, `sqa_dev_accuracy`)
decodes through one loop, `_dev_outputs`, and then scores its outputs. The
loop folds the adapters into the backbone's weights once per metric call,
with no graph recorded on them, and decodes every prompt with that one
folded dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import COMPONENT_KINDS
from .corpus import SPEECH_TASKS, Corpus, Example
from .decode import greedy_decode
from .errors import ConfigError, ContractViolation, ShapeError, TrainingDivergenceError
from .metrics import bleu4, make_default_judge, qa_accuracy, sequence_accuracy
from .model import Backbone, LoraAdapters, SpeechProjector, fold_adapters, splice_grid
from .model import splice_prompt  # noqa: F401  (perfbench wraps trainer.splice_prompt)
from .prompting import PromptedExample, render_prompt
from .rng import Rng
from .sampler import BatchEntry, SamplerConfig, plan_epoch
from .tensor import Tensor, add, concat, embedding_lookup, grad, masked_cross_entropy, no_grad
from .tensor import scale, stack, tslice  # noqa: F401  (perfbench wraps trainer.scale, .stack and .tslice)
from .vocab import TARGET_LANGUAGES

# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 1e-3

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")


BETAS = (0.9, 0.999)  # decay rates of the first and second moments
EPS = 1e-8  # added to sqrt(v_hat) in the update's denominator


class AdamW:
    """Adam (AdamW with zero weight decay) with bias-corrected moments and a
    constant learning rate over one component's named parameters, updated
    as one flat array.

    The moments live in two flat arrays, `m` and `v`, in parameter order;
    `state["m"]` and `state["v"]` map each name to its reshaped view. Each
    step gathers the gradients and the weights into flat arrays, updates
    them in a handful of array ops and rebinds every `Tensor.data` to a view
    of the new flat weights. The weights are gathered afresh each step, not
    kept as long-lived views updated in place: callers rebind `Tensor.data`
    (`load_arrays`, a reset to saved arrays), which would detach such views,
    and arrays handed out earlier (`param_arrays()`) must not change.
    """

    def __init__(self, params: dict[str, Tensor], cfg: OptimizerConfig):
        self.params = dict(params)
        self.cfg = cfg
        self.t = 0
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) != 1:
            raise ContractViolation(f"an optimizer needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params.values()])
        dtype = dtypes.pop()
        self._m, self._v = np.zeros(self._bounds[-1], dtype), np.zeros(self._bounds[-1], dtype)
        self.state = {"m": self._views(self._m), "v": self._views(self._v)}

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """name -> that parameter's slice of `flat`, in its shape."""
        return {k: flat[lo:hi].reshape(p.shape) for (k, p), lo, hi in zip(self.params.items(), self._bounds, self._bounds[1:])}

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Update every parameter from `grads` (same names); returns the
        learning rate used. A non-finite gradient raises before anything,
        the step count included, changes."""
        g = np.concatenate([grads[k].reshape(-1) for k in self.params])
        if not np.isfinite(g).all():
            bad = next(k for k in self.params if not np.isfinite(grads[k]).all())
            raise TrainingDivergenceError(f"non-finite gradient for {bad}")
        self.t += 1
        step, lr = self.t, self.cfg.lr
        b1, b2 = BETAS
        w = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        # w - lr * (m_hat / (sqrt(v_hat) + EPS)) with bias-corrected moments,
        # computed in place in the fresh `g`, `w` and one temporary.
        m, v = self._m, self._v
        m_hat = (1 - b1) * g
        m *= b1
        m += m_hat
        g *= g
        g *= 1 - b2
        v *= b2
        v += g
        np.divide(m, 1 - b1**step, out=m_hat)
        np.divide(v, 1 - b2**step, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m_hat, g, out=g)
        g *= lr
        w -= g
        for p, view in zip(self.params.values(), self._views(w).values()):
            p.data = view
        return lr

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.state["m"].items()},
            "v": {k: v.copy() for k, v in self.state["v"].items()},
        }

    def load_state_dict(self, sd: dict) -> None:
        """Load `t` and every moment of `sd`; a wrong type, name set or shape
        raises `ShapeError` before anything changes."""
        if not isinstance(sd["t"], (int, np.integer)) or sd["t"] < 0:
            raise ShapeError(f"step count must be a non-negative integer, got {sd['t']!r}")
        for s in ("m", "v"):
            if set(sd[s]) != set(self.params):
                raise ShapeError(f"{s} names {sorted(sd[s])} do not match {sorted(self.params)}")
            for k, view in self.state[s].items():
                if np.shape(sd[s][k]) != view.shape:
                    raise ShapeError(f"{s}[{k}] has shape {np.shape(sd[s][k])}, expected {view.shape}")
        self.t = sd["t"]
        for s in ("m", "v"):
            for k, view in self.state[s].items():
                view[...] = sd[s][k]


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

    The input is one lookup of a `splice_grid` index into the token table
    and the batch's speech rows (`SpeechProjector.speech_rows`).
    Only the positions that predict a target get logits (`Backbone.forward`'s
    `rows`), a third or less of the grid.
    `content_noise` perturbs text content-block embeddings during training
    (backbone pretraining only); it makes content reading tolerant to the
    inexact embeddings a projector will later splice into the same slots.
    All prompts must share one modality: speech (with frames) or text.
    """
    speech = {p.frames is not None for p in prompts}
    if len(speech) > 1:
        raise ConfigError("a batch mixes speech and text prompts")
    wte = backbone.params["wte"]
    table = wte
    if speech == {True}:
        if projector is None:
            raise ConfigError("speech batch needs a projector")
        projector_rng = rng.split("projector") if rng is not None else None
        table = concat([wte, projector.speech_rows([p.frames for p in prompts], train, projector_rng)], axis=0)
    rows = [(p.prefix_tokens, p.content_tokens if p.frames is None else len(p.frames), p.suffix_tokens, p.target_tokens)
            for p in prompts]
    index, ids, mask = splice_grid(rows, wte.shape[0], backbone.cfg.max_seq_len)
    emb = embedding_lookup(table, index)
    if train and content_noise > 0.0 and speech == {False}:
        if rng is None:
            raise ConfigError("content noise needs an rng")
        noise = np.zeros(emb.shape, dtype=emb.dtype)
        for i, p in enumerate(prompts):
            start, n = len(p.prefix_tokens), len(p.content_tokens)
            noise[i, start : start + n] = content_noise * rng.split("noise", p.id).normal(size=(n, emb.shape[-1]))
        emb = add(emb, Tensor(noise))
    label_mask = np.zeros_like(mask)
    label_mask[:, :-1] = mask[:, 1:]  # position t predicts token t + 1
    rows = np.nonzero(label_mask)
    logits = backbone.forward(emb, np.arange(index.shape[1]), lora=adapters, rows=rows)
    return masked_cross_entropy(logits, ids[rows[0], rows[1] + 1], np.ones(len(rows[0]), dtype=bool))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainLogRecord:
    step: int
    task: str
    modality: str
    loss: float
    lr: dict[str, float]  # component -> the learning rate its optimizer stepped with


@dataclass
class EvalRecord:
    step: int
    metric: float
    details: dict = field(default_factory=dict)


# What each stage trains, sorted. Only pretraining trains the backbone: it is frozen after.
STAGE_TRAINABLE = {"pretrain": ("backbone",), "A": ("projector",), "B": ("lora",), "C": ("lora", "projector")}


@dataclass
class StagePlan:
    stage: str  # pretrain | A | B | C
    trainable: tuple[str, ...]
    sampler: SamplerConfig
    optimizers: dict[str, OptimizerConfig]
    max_steps: int
    eval_every: int = 50
    dev_examples: int = 12  # per language/task during in-training evals
    max_new_tokens: int = 16
    content_noise: float = 0.0  # text content-embedding noise (pretraining)

    def __post_init__(self):
        if self.stage not in STAGE_TRAINABLE:
            raise ConfigError(f"unknown stage {self.stage!r}")
        if tuple(sorted(self.trainable)) != STAGE_TRAINABLE[self.stage]:
            raise ConfigError(f"stage {self.stage} trains {STAGE_TRAINABLE[self.stage]}, not {self.trainable}")
        if self.stage == "pretrain" and not self.sampler.text_mode:
            raise ConfigError("backbone pretraining runs on text-rendered batches")
        if self.stage == "B" and not self.sampler.text_mode and any(t in self.sampler.task_ratios for t in SPEECH_TASKS):
            raise ConfigError("adapter training is text-only")
        for c in self.trainable:
            if c not in self.optimizers:
                raise ConfigError(f"trainable component {c!r} has no optimizer config")
        if self.stage == "C" and self.optimizers["projector"].lr == self.optimizers["lora"].lr:
            raise ConfigError("merge stage needs distinct per-component learning rates")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")


class Trainer:
    """Drives one stage: plans epochs, renders the examples each planned
    batch holds and steps one optimizer per trainable component on every
    batch."""

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

    def render_batch(self, entry: BatchEntry) -> list[PromptedExample]:
        """The prompts of `entry`'s examples in its modality, in order."""
        return [render_prompt(ex, entry.modality, self.corpus.vocab, self.frame_avg_k) for ex in entry.examples]

    def run(self, plan: StagePlan, rng: Rng, eval_fn=None) -> tuple[list[TrainLogRecord], list[EvalRecord], dict]:
        """Train for `plan.max_steps` schedule steps.

        Every attached component outside `plan.trainable` is frozen; each
        trainable one must be attached. Each batch of a step, the primary
        one and its interleaved text batch alike, is one update: forward,
        backward, then one AdamW step per trainable component. The log holds
        one record per batch, under its step's index. Returns (train log,
        eval records, snapshots) where snapshots maps each trainable
        component name -> its parameter arrays after the last step.
        """
        if eval_fn is not None and not (0 < plan.eval_every <= plan.max_steps):
            raise ConfigError("dev evaluation cadence does not fit the step budget")
        attached = zip(COMPONENT_KINDS, (self.backbone, self.projector, self.adapters))
        components = {c: obj for c, obj in attached if obj is not None}
        for c in plan.trainable:
            if c not in components:
                raise ConfigError(f"no {c} attached")
        params = {c: components[c].param_dict() for c in plan.trainable}
        for c, obj in components.items():
            obj.set_trainable(c in plan.trainable)
        optimizers = {c: AdamW(params[c], plan.optimizers[c]) for c in plan.trainable}
        param_list = [t for ps in params.values() for t in ps.values()]

        pools = self.corpus.sampler_pools()
        log: list[TrainLogRecord] = []
        evals: list[EvalRecord] = []
        train_rng = rng.split("train")
        primary_done = 0
        epoch = 0
        while primary_done < plan.max_steps:
            for step in plan_epoch(plan.sampler, pools, rng.split(f"epoch{epoch}"), plan.max_steps - primary_done).steps:
                for entry in step:
                    loss = batch_loss(
                        self.backbone,
                        self.render_batch(entry),
                        projector=self.projector,
                        adapters=self.adapters,
                        train=True,
                        rng=train_rng.split(f"s{primary_done}", entry.task, entry.modality),
                        content_noise=plan.content_noise,
                    )
                    loss_val = float(loss.data)
                    if not np.isfinite(loss_val):
                        raise TrainingDivergenceError(f"loss diverged at step {primary_done}")
                    grads = grad(loss, param_list)
                    del loss  # free this batch's graph before the update
                    lrs = {c: opt.step({name: grads[t].data for name, t in params[c].items()}) for c, opt in optimizers.items()}
                    del grads  # and its gradients before the next forward
                    log.append(TrainLogRecord(primary_done, entry.task, entry.modality, loss_val, lrs))
                primary_done += 1
                if eval_fn is not None and primary_done % plan.eval_every == 0:
                    metric, details = eval_fn()
                    evals.append(EvalRecord(step=primary_done, metric=metric, details=details))
            epoch += 1
        return log, evals, {c: {k: t.data.copy() for k, t in ps.items()} for c, ps in params.items()}


# ---------------------------------------------------------------------------
# dev evaluation
# ---------------------------------------------------------------------------


def _dev_outputs(
    backbone: Backbone,
    corpus: Corpus,
    task: str,
    modality: str,
    splits: list[tuple[str, str]],
    frame_avg_k: int,
    projector: SpeechProjector | None,
    adapters: LoraAdapters | None,
    max_examples: int,
    max_new_tokens: int,
) -> list[tuple[Example, list[int]]]:
    """(example, greedy output) for the first `max_examples` of each
    `(language, validity)` dev split of `task`, split by split, in order.

    The adapters are folded once, under `no_grad` (an eval inside training
    must record no graph on the trainable adapters), and every prompt is
    decoded through the same folded weights."""
    with no_grad():
        weights = fold_adapters(backbone.params, adapters)
    out = []
    for language, validity in splits:
        for ex in corpus.splits[(task, language, validity, "dev")][:max_examples]:
            prompt = render_prompt(ex, modality, corpus.vocab, frame_avg_k)
            out.append((ex, greedy_decode(backbone, prompt, max_new_tokens, projector=projector, weights=weights)))
    return out


def st_dev_bleu(backbone, corpus, frame_avg_k, projector, adapters=None, max_examples=12, max_new_tokens=16) -> tuple[float, dict]:
    """Mean sentence BLEU over the speech-translation dev split, averaged
    across target languages (stage A's dev metric)."""
    splits = [(lang, "valid") for lang in TARGET_LANGUAGES]
    pairs = _dev_outputs(backbone, corpus, "ST", "speech", splits, frame_avg_k, projector, adapters, max_examples, max_new_tokens)
    per_lang = {}
    for lang in TARGET_LANGUAGES:
        scores = [bleu4([tuple(e.answer_tokens)], tuple(o)) for e, o in pairs if e.language == lang]
        per_lang[lang] = float(np.mean(scores)) if scores else 0.0
    return float(np.mean(list(per_lang.values()))), per_lang


def task_dev_accuracy(backbone, corpus, task, language, modality, frame_avg_k, projector=None, adapters=None, max_examples=24, max_new_tokens=16) -> float:
    """Exact-match accuracy over one language's valid dev split of `task`."""
    pairs = _dev_outputs(backbone, corpus, task, modality, [(language, "valid")], frame_avg_k, projector, adapters, max_examples, max_new_tokens)
    return sequence_accuracy([tuple(e.answer_tokens) for e, _ in pairs], [tuple(o) for _, o in pairs])


def sqa_dev_accuracy(backbone, corpus, languages, frame_avg_k, projector=None, adapters=None, modality="speech", task="SQA", max_examples=16, max_new_tokens=16) -> float:
    """Judged QA accuracy over the valid then the invalid dev split of each
    language: SQA on speech by default, text QA with task="QA", modality="text"."""
    splits = [(lang, validity) for lang in languages for validity in ("valid", "invalid")]
    pairs = _dev_outputs(backbone, corpus, task, modality, splits, frame_avg_k, projector, adapters, max_examples, max_new_tokens)
    return qa_accuracy([e for e, _ in pairs], [o for _, o in pairs], make_default_judge(corpus.vocab))


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _mt_accuracy(trainer: Trainer, plan: StagePlan) -> tuple[float, dict]:
    accs = [
        task_dev_accuracy(trainer.backbone, trainer.corpus, "MT", lang, "text", trainer.frame_avg_k, trainer.projector,
                          trainer.adapters, plan.dev_examples, plan.max_new_tokens)
        for lang in TARGET_LANGUAGES
    ]
    return float(np.mean(accs)), {"mt_acc": dict(zip(TARGET_LANGUAGES, accs))}


def _st_bleu(trainer: Trainer, plan: StagePlan) -> tuple[float, dict]:
    mean_bleu, per_lang = st_dev_bleu(trainer.backbone, trainer.corpus, trainer.frame_avg_k, trainer.projector,
                                      trainer.adapters, plan.dev_examples, plan.max_new_tokens)
    return mean_bleu, {"st_bleu": per_lang}


# The dev metric of each stage that has one: mean MT exact match across target
# languages while pretraining, mean ST BLEU in stage A. Stages B and C
# evaluate nothing during training.
DEV_METRICS = {"pretrain": _mt_accuracy, "A": _st_bleu}


def run_stage(plan: StagePlan, trainer: Trainer, rng: Rng) -> tuple[list[TrainLogRecord], list[EvalRecord], dict]:
    """Run one stage of the recipe on `trainer`'s components, evaluating
    the stage's entry in `DEV_METRICS` every `plan.eval_every` steps.
    Returns (train log, eval records, snapshots of the `plan.trainable`
    components).
    """
    metric = DEV_METRICS.get(plan.stage)
    return trainer.run(plan, rng, eval_fn=None if metric is None else lambda: metric(trainer, plan))
