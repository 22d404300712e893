import numpy as np
import pytest

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
