import dataclasses
import weakref

import numpy as np
import pytest

from mmadapt import trainer as trainer_module

from mmadapt.corpus import CorpusConfig, build_corpus
from mmadapt.errors import ConfigError
from mmadapt.model import Backbone, BackboneConfig, LoraAdapters, LoraConfig, ProjectorConfig, SpeechProjector
from mmadapt.prompting import render_prompt
from mmadapt.rng import Rng
from mmadapt.sampler import SamplerConfig
from mmadapt.tensor import parameter
from mmadapt.trainer import AdamW, OptimizerConfig, StagePlan, Trainer, batch_loss, run_stage
from mmadapt.vocab import LANGUAGES, TARGET_LANGUAGES

BB = BackboneConfig(vocab_size=96, d_model=16, n_layers=1, n_heads=2, d_ffn=24)
PROJ = ProjectorConfig(n_layers=1, n_heads=2, d_in=32, d_ffn=16, d_out=16, frame_avg_k=3)
LORA = LoraConfig(rank=2, alpha=4.0)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(seed=3, n_sentences=48, n_contexts=24))


def _models() -> dict:
    rng = Rng(0)
    return {
        "backbone": Backbone(BB, rng.split("backbone")),
        "projector": SpeechProjector(PROJ, rng.split("projector")),
        "lora": LoraAdapters(BB, LORA, rng.split("lora")),
    }


def _trainer(corpus, models: dict) -> Trainer:
    return Trainer(models["backbone"], corpus, PROJ.frame_avg_k, projector=models.get("projector"), adapters=models.get("lora"))


def _uniform(keys) -> dict:
    keys = list(keys)
    return {k: 1.0 / len(keys) for k in keys}


SPLITS = {
    "ASR": {("src", "valid"): 1.0},
    "ST": _uniform((lang, "valid") for lang in TARGET_LANGUAGES),
    "MT": _uniform((lang, "valid") for lang in LANGUAGES),
    "QA": _uniform((lang, "valid") for lang in LANGUAGES),
    "SQA": _uniform((lang, "valid") for lang in LANGUAGES),
}


def _sampler(tasks, **kw) -> SamplerConfig:
    return SamplerConfig(
        task_ratios=_uniform(tasks), split_ratios={t: SPLITS[t] for t in tasks}, batch_size=2, **kw
    )


def _plan(stage: str, **kw) -> StagePlan:
    common = {"max_steps": 2, "eval_every": 1, "dev_examples": 1, "max_new_tokens": 2}
    if stage == "pretrain":
        return StagePlan("pretrain", ("backbone",), _sampler(("ASR", "ST", "MT", "QA"), text_mode=True),
                         {"backbone": OptimizerConfig(lr=1e-3)}, **{**common, **kw})
    if stage == "A":
        return StagePlan("A", ("projector",), _sampler(("ASR", "ST"), interleave_text=False),
                         {"projector": OptimizerConfig(lr=1e-3)}, **{**common, **kw})
    if stage == "B":
        return StagePlan("B", ("lora",), _sampler(("MT", "QA")), {"lora": OptimizerConfig(lr=1e-3)}, **{**common, **kw})
    return StagePlan("C", ("projector", "lora"), _sampler(("ASR", "ST", "SQA")),
                     {"projector": OptimizerConfig(lr=5e-4), "lora": OptimizerConfig(lr=1e-3)}, **{**common, **kw})


@pytest.mark.parametrize("stage,metric", [("pretrain", "mt_acc"), ("A", "st_bleu"), ("B", None), ("C", None)])
def test_run_stage_trains_only_the_planned_components(corpus, stage, metric):
    models = _models()
    before = {c: {k: a.copy() for k, a in m.param_arrays().items()} for c, m in models.items()}
    plan = _plan(stage)
    log, evals, snaps = run_stage(plan, _trainer(corpus, models), Rng(1))

    assert sorted({r.step for r in log}) == [0, 1]
    assert all(np.isfinite(r.loss) for r in log)
    assert sorted(snaps) == sorted(plan.trainable)
    for c, m in models.items():
        now = m.param_arrays()
        assert all(t.requires_grad == (c in plan.trainable) for t in m.params.values())
        if c in plan.trainable:
            assert all(np.array_equal(snaps[c][k], a) for k, a in now.items())
            assert any(not np.array_equal(before[c][k], a) for k, a in now.items())
        else:
            assert all(np.array_equal(before[c][k], a) and a.dtype == before[c][k].dtype for k, a in now.items())
    # The dev metric follows the stage: one eval per step where there is one.
    if metric is None:
        assert evals == []
    else:
        assert [e.step for e in evals] == [1, 2]
        assert all(set(e.details) == {metric} for e in evals)


def test_run_stage_is_determined_by_its_seed(corpus):
    runs = []
    for _ in range(2):
        log, _, snaps = run_stage(_plan("C"), _trainer(corpus, _models()), Rng(4))
        runs.append(([r.loss for r in log], snaps))
    assert runs[0][0] == runs[1][0]
    for c in runs[0][1]:
        for k, a in runs[0][1][c].items():
            np.testing.assert_array_equal(a, runs[1][1][c][k])


def test_stage_plan_rejects_what_the_recipe_forbids():
    text = _sampler(("MT", "QA"), text_mode=True)
    with pytest.raises(ConfigError):  # pretraining renders text
        StagePlan("pretrain", ("backbone",), _sampler(("MT",)), {"backbone": OptimizerConfig()}, max_steps=1)
    with pytest.raises(ConfigError):  # the backbone is frozen after pretraining
        StagePlan("A", ("backbone",), text, {"backbone": OptimizerConfig()}, max_steps=1)
    with pytest.raises(ConfigError):  # adapter training is text-only
        StagePlan("B", ("lora",), _sampler(("ST", "MT")), {"lora": OptimizerConfig()}, max_steps=1)
    with pytest.raises(ConfigError):
        StagePlan("D", ("lora",), text, {"lora": OptimizerConfig()}, max_steps=1)


def test_merge_stage_needs_both_components(corpus):
    for missing in ("projector", "lora"):
        models = _models()
        del models[missing]
        with pytest.raises(ConfigError, match=missing):
            run_stage(_plan("C"), _trainer(corpus, models), Rng(1))


def test_batch_loss_rejects_mixed_modalities(corpus):
    models = _models()
    ex = corpus.split("ST", "tgt1")[0]
    speech = render_prompt(ex, "speech", corpus.vocab, PROJ.frame_avg_k)
    text = render_prompt(ex, "text", corpus.vocab, PROJ.frame_avg_k)
    for prompts in ([text, speech], [speech, text]):
        with pytest.raises(ConfigError):
            batch_loss(models["backbone"], prompts, projector=models["projector"])


def test_adamw_first_step_moves_each_weight_by_lr_against_its_gradient():
    # After one step the bias-corrected moments give m_hat / sqrt(v_hat) = sign(g).
    p = parameter(np.array([1.0, -2.0, 0.5]))
    opt = AdamW({"w": p}, OptimizerConfig(lr=0.1, eps=1e-12))
    assert opt.step({"w": np.array([3.0, -0.25, 1e-3])}) == 0.1
    np.testing.assert_allclose(p.data, [0.9, -1.9, 0.4], rtol=1e-9)


def test_partial_last_window_is_applied(corpus):
    # grad_accum=2 over 3 steps: the window {0, 1} steps at 1, the partial
    # window {2} steps at 2 instead of being dropped.
    plan = dataclasses.replace(_plan("B", max_steps=3), optimizers={"lora": OptimizerConfig(lr=1e-3, grad_accum=2)})
    log, _, _ = run_stage(plan, _trainer(corpus, _models()), Rng(1))
    lrs = [r.lr for r in log]
    assert len(lrs) == 3 and np.isnan(lrs[0]) and lrs[1:] == [1e-3, 1e-3]


class _RecordingAdamW(AdamW):
    """AdamW that keeps a copy of every gradient buffer it is stepped with."""

    steps: list = []

    def step(self, grads):
        _RecordingAdamW.steps.append({k: g.copy() for k, g in grads.items()})
        return super().step(grads)


@pytest.mark.parametrize("accum,steps", [(2, 2), (3, 3), (3, 2)])
def test_identical_micro_batches_give_the_update_of_one_step(corpus, monkeypatch, accum, steps):
    # A one-example pool makes every micro-batch the same batch. A window of
    # k of them, full (accum == steps) or partial (accum > steps), must apply
    # the same mean gradient, and so the same update, as one plain step.
    one = dataclasses.replace(corpus, splits={**corpus.splits, ("MT", "tgt1", "valid", "train"): corpus.split("MT", "tgt1")[:1]})
    sampler = SamplerConfig(task_ratios={"MT": 1.0}, split_ratios={"MT": {("tgt1", "valid"): 1.0}}, batch_size=1,
                            interleave_text=False)
    monkeypatch.setattr(trainer_module, "AdamW", _RecordingAdamW)
    results = []
    for grad_accum, max_steps in ((1, 1), (accum, steps)):
        _RecordingAdamW.steps = []
        models = _models()
        lora = models["lora"]
        for (layer, site), pair in lora.pairs.items():  # non-zero B, so every A gets a gradient too
            pair.B.data = Rng(5).split(str(layer), site).normal(size=pair.B.shape).astype(np.float32) * 0.1
        plan = StagePlan("B", ("lora",), sampler, {"lora": OptimizerConfig(lr=1e-3, grad_accum=grad_accum)},
                         max_steps=max_steps)
        run_stage(plan, _trainer(one, models), Rng(1))
        assert len(_RecordingAdamW.steps) == 1
        results.append((_RecordingAdamW.steps[0], lora.param_arrays()))
    (g_one, p_one), (g_acc, p_acc) = results
    for name, g in g_one.items():
        assert np.any(g != 0)
        # Scaling the loss by 1/k rounds differently through a float32 graph.
        np.testing.assert_allclose(g_acc[name], g, rtol=1e-5, atol=1e-5 * np.abs(g).max())
        np.testing.assert_allclose(p_acc[name], p_one[name], rtol=1e-6, atol=1e-7)


def test_each_micro_batch_graph_is_released_before_the_next_forward(corpus, monkeypatch):
    real = trainer_module.batch_loss
    live = []  # weak references into each earlier micro-batch's graph

    def watched(*args, **kwargs):
        assert all(ref() is None for ref in live), "an earlier micro-batch's graph is still alive"
        loss = real(*args, **kwargs)
        live.extend((weakref.ref(loss.data), weakref.ref(loss.parents[0].data)))  # the loss and its logits
        return loss

    monkeypatch.setattr(trainer_module, "batch_loss", watched)
    plan = dataclasses.replace(_plan("B", max_steps=3), optimizers={"lora": OptimizerConfig(lr=1e-3, grad_accum=2)})
    run_stage(plan, _trainer(corpus, _models()), Rng(1))
    assert len(live) == 6
