import weakref

import numpy as np
import pytest

from mmadapt import trainer as trainer_module

from mmadapt.corpus import CorpusConfig, build_corpus
from mmadapt.errors import ConfigError, ShapeError, TrainingDivergenceError
from mmadapt.model import Backbone, BackboneConfig, LoraAdapters, LoraConfig, ProjectorConfig, SpeechProjector
from mmadapt.prompting import render_prompt
from mmadapt.rng import Rng
from mmadapt.sampler import SamplerConfig
from mmadapt.tensor import grad, parameter, tape_of
from mmadapt.trainer import BETAS, EPS, AdamW, OptimizerConfig, StagePlan, Trainer, batch_loss, run_stage
from mmadapt.vocab import LANGUAGES, TARGET_LANGUAGES

from references import corpus_split, per_example_batch_loss

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


@pytest.mark.parametrize("stage,trainable", [
    ("A", ("lora",)),
    ("A", ("projector", "lora")),
    ("B", ("projector",)),
    ("pretrain", ("lora",)),
    ("B", ("lora", "lora")),
    ("B", ()),
    ("C", ("projector",)),
    ("C", ("projector", "lora", "backbone")),
])
def test_stage_plan_rejects_a_trainable_set_outside_the_recipe(stage, trainable):
    # pretrain -> backbone, A -> projector, B -> lora, C -> projector + lora.
    optimizers = {c: OptimizerConfig(lr=lr) for c, lr in zip(("backbone", "projector", "lora"), (1e-3, 5e-4, 2e-3))}
    with pytest.raises(ConfigError, match=f"stage {stage} trains"):
        StagePlan(stage, trainable, _sampler(("MT", "QA"), text_mode=True), optimizers, max_steps=1)


def test_merge_stage_needs_both_components(corpus):
    for missing in ("projector", "lora"):
        models = _models()
        del models[missing]
        with pytest.raises(ConfigError, match=missing):
            run_stage(_plan("C"), _trainer(corpus, models), Rng(1))


def test_batch_loss_rejects_mixed_modalities(corpus):
    models = _models()
    ex = corpus_split(corpus, "ST", "tgt1")[0]
    speech = render_prompt(ex, "speech", corpus.vocab, PROJ.frame_avg_k)
    text = render_prompt(ex, "text", corpus.vocab, PROJ.frame_avg_k)
    for prompts in ([text, speech], [speech, text]):
        with pytest.raises(ConfigError):
            batch_loss(models["backbone"], prompts, projector=models["projector"])


def _grid_and_reference(models, prompts, trainable, **kw):
    """(loss, gradients) of `batch_loss`, then of the per-example assembly,
    over the parameters of the `trainable` components."""
    for c, obj in models.items():
        obj.set_trainable(c in trainable)
    params = {f"{c}.{k}": t for c in trainable for k, t in models[c].params.items()}
    adapters = models["lora"] if "lora" in trainable else None
    kw = dict(projector=models["projector"], adapters=adapters, train=True, rng=Rng(4), **kw)
    out = []
    for fn in (batch_loss, per_example_batch_loss):
        loss = fn(models["backbone"], prompts, **kw)
        g = grad(loss, list(params.values()))
        out.append((loss, {k: g[t].data for k, t in params.items()}))
    return out


def _unequal(corpus, task, modality, size) -> list:
    """Three prompts of `task` whose `size` (a length) differs pairwise."""
    by_size = {}
    for ex in corpus_split(corpus, task, "tgt1"):
        p = render_prompt(ex, modality, corpus.vocab, PROJ.frame_avg_k)
        by_size.setdefault(size(p), p)
    assert len(by_size) >= 3
    return list(by_size.values())[:3]


def _assert_real_logits_equal(loss, ref, prompts):
    """The logits (the loss's parent) agree at every real position; padding
    rows may hold anything."""
    logits, ref_logits = loss.parents[0].data, ref.parents[0].data
    assert logits.shape == ref_logits.shape
    real = np.arange(logits.shape[1]) < np.array([len(p) for p in prompts])[:, None]
    np.testing.assert_array_equal(logits[real], ref_logits[real])


def _tape_ops(loss) -> list[str]:
    return [node.op for node in tape_of(loss).nodes]


@pytest.mark.parametrize("content_noise", [0.0, 0.1])
def test_text_batch_grid_matches_the_per_example_assembly(corpus, content_noise):
    prompts = _unequal(corpus, "MT", "text", len)  # padded rows
    (loss, g), (ref, g_ref) = _grid_and_reference(_models(), prompts, ("backbone",), content_noise=content_noise)
    np.testing.assert_array_equal(loss.data, ref.data)
    _assert_real_logits_equal(loss, ref, prompts)
    assert set(g) == set(g_ref)
    for name in g:
        if name == "backbone.wte":  # float32 scatter-adds in another order
            np.testing.assert_allclose(g[name], g_ref[name], rtol=0, atol=1e-6 * np.abs(g_ref[name]).max())
        else:
            np.testing.assert_array_equal(g[name], g_ref[name], err_msg=name)
    ops = _tape_ops(loss)
    assert ops.count("embedding-lookup") == 2 and "concat" not in ops  # the grid and wpe


def test_speech_batch_grid_matches_the_per_example_assembly(corpus):
    prompts = _unequal(corpus, "ST", "speech", lambda p: p.frames.shape[0])  # padded frames
    assert PROJ.dropout > 0
    (loss, g), (ref, g_ref) = _grid_and_reference(_models(), prompts, ("lora", "projector"))
    np.testing.assert_array_equal(loss.data, ref.data)
    _assert_real_logits_equal(loss, ref, prompts)
    assert set(g) == set(g_ref)
    for name in g:
        np.testing.assert_array_equal(g[name], g_ref[name], err_msg=name)
    ops = _tape_ops(loss)
    assert ops.count("slice") == 1 and ops.count("concat") == 1  # the valid rows, then the table


def test_adamw_first_step_moves_each_weight_by_lr_against_its_gradient():
    # After one step the bias-corrected moments give m_hat / (sqrt(v_hat) + EPS) = g / (|g| + EPS).
    w, g = np.array([1.0, -2.0, 0.5]), np.array([3.0, -0.25, 1e-3])
    p = parameter(w.copy())
    opt = AdamW({"w": p}, OptimizerConfig(lr=0.1))
    assert opt.step({"w": g}) == 0.1
    np.testing.assert_allclose(p.data, w - 0.1 * g / (np.abs(g) + EPS), rtol=1e-9)


class _PerTensorAdamW:
    """The per-tensor AdamW loop the flat update replaced: the reference."""

    def __init__(self, arrays: dict, lr: float):
        self.arrays = {k: a.copy() for k, a in arrays.items()}
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(a) for k, a in arrays.items()}
        self.v = {k: np.zeros_like(a) for k, a in arrays.items()}

    def step(self, grads: dict) -> float:
        self.t += 1
        step, lr = self.t, self.lr
        b1, b2 = BETAS
        for name, p in self.arrays.items():
            g, m, v = grads[name], self.m[name], self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            m_hat = m / (1 - b1**step)
            v_hat = v / (1 - b2**step)
            self.arrays[name] = p - lr * (m_hat / (np.sqrt(v_hat) + EPS))
        return lr


SHAPES = {"w": (4, 3), "b": (3,), "table": (5, 2, 2)}


def _adamw_case(dtype=np.float32):
    rng = Rng(70)
    params = {k: parameter(rng.split(k).normal(size=s).astype(dtype)) for k, s in SHAPES.items()}
    cfg = OptimizerConfig(lr=1e-2)
    return params, cfg


def _grads(step: int, dtype=np.float32) -> dict:
    return {k: Rng(71).split(str(step), k).normal(size=s).astype(dtype) for k, s in SHAPES.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adamw_is_bit_identical_to_the_per_tensor_loop(dtype):
    params, cfg = _adamw_case(dtype)
    ref = _PerTensorAdamW({k: t.data for k, t in params.items()}, cfg.lr)
    opt = AdamW(params, cfg)
    for step in range(5):
        grads = _grads(step, dtype)
        assert opt.step(grads) == ref.step(grads)
        for k, t in params.items():
            assert t.data.dtype == dtype and t.data.shape == SHAPES[k]
            np.testing.assert_array_equal(t.data, ref.arrays[k])
    sd = opt.state_dict()
    assert sd["t"] == 5
    for k in SHAPES:
        np.testing.assert_array_equal(sd["m"][k], ref.m[k])
        np.testing.assert_array_equal(sd["v"][k], ref.v[k])
    # A state dict loaded into a fresh optimizer continues the same run.
    again = AdamW(params, cfg)
    again.load_state_dict(sd)
    grads = _grads(5, dtype)
    ref.step(grads)
    again.step(grads)
    for k, t in params.items():
        np.testing.assert_array_equal(t.data, ref.arrays[k])


def test_adamw_step_leaves_arrays_handed_out_earlier_unchanged():
    params, cfg = _adamw_case()
    opt = AdamW(params, cfg)
    opt.step(_grads(0))
    handed_out = {k: t.data for k, t in params.items()}  # no copies
    kept = {k: a.copy() for k, a in handed_out.items()}
    opt.step(_grads(1))
    for k, a in handed_out.items():
        np.testing.assert_array_equal(a, kept[k])
        assert not np.array_equal(params[k].data, kept[k])


def test_non_finite_gradient_changes_nothing():
    # The check runs once, over every gradient, before any update: a NaN in
    # the last parameter leaves the earlier ones and their moments untouched.
    params, cfg = _adamw_case()
    opt = AdamW(params, cfg)
    opt.step(_grads(0))
    before = {k: t.data.copy() for k, t in params.items()}
    sd = opt.state_dict()
    grads = _grads(1)
    grads["table"][2, 1, 0] = np.nan
    with pytest.raises(TrainingDivergenceError, match="table"):
        opt.step(grads)
    for k, t in params.items():
        np.testing.assert_array_equal(t.data, before[k])
    after = opt.state_dict()
    assert after["t"] == sd["t"]
    for s in ("m", "v"):
        for k in SHAPES:
            np.testing.assert_array_equal(after[s][k], sd[s][k])


def _short_moment(sd):
    sd["v"]["w"] = sd["v"]["w"][:1]  # (1, 3) would broadcast into (4, 3)


def _scalar_moment(sd):
    sd["v"]["b"] = np.float32(0.5)


def _extra_name(sd):
    sd["v"]["extra"] = np.zeros(3, np.float32)


def _missing_name(sd):
    del sd["v"]["table"]


def _fractional_step(sd):
    sd["t"] = 1.5


@pytest.mark.parametrize("corrupt", [_short_moment, _scalar_moment, _extra_name, _missing_name, _fractional_step])
def test_load_state_dict_rejects_a_wrong_state_before_any_change(corrupt):
    # The bad entry sits in `v`, after `t` and every `m` a partial load would have set.
    params, cfg = _adamw_case()
    opt = AdamW(params, cfg)
    opt.step(_grads(0))
    before = opt.state_dict()
    bad = opt.state_dict()
    bad["t"] = 9
    for s in ("m", "v"):
        for k in SHAPES:
            bad[s][k] = bad[s][k] + 1
    corrupt(bad)
    with pytest.raises(ShapeError):
        opt.load_state_dict(bad)
    after = opt.state_dict()
    assert after["t"] == before["t"] == 1
    for s in ("m", "v"):
        for k in SHAPES:
            np.testing.assert_array_equal(after[s][k], before[s][k])


class _RecordingAdamW(AdamW):
    """AdamW that keeps a copy of every gradient buffer it is stepped with."""

    steps: list = []

    def step(self, grads):
        _RecordingAdamW.steps.append({k: g.copy() for k, g in grads.items()})
        return super().step(grads)


def test_interleaved_merge_stage_steps_every_optimizer_on_every_batch(corpus, monkeypatch):
    # Stage C interleaves a text batch after each ST/SQA batch. Each batch,
    # primary or interleaved, is one update of each trainable component.
    monkeypatch.setattr(trainer_module, "AdamW", _RecordingAdamW)
    _RecordingAdamW.steps = []
    models = _models()
    plan = _plan("C", max_steps=4)
    log, _, _ = run_stage(plan, _trainer(corpus, models), Rng(1))
    assert len(log) > plan.max_steps  # some step had an interleaved text batch
    names = [set(models[c].params) for c in plan.trainable]
    assert [set(g) for g in _RecordingAdamW.steps] == names * len(log)
    # Each record logs every component's own learning rate.
    assert [r.lr for r in log] == [{"lora": 1e-3, "projector": 5e-4}] * len(log)


def test_each_micro_batch_graph_is_released_before_the_next_forward(corpus, monkeypatch):
    real = trainer_module.batch_loss
    live = []  # weak references into each earlier micro-batch's graph

    def watched(*args, **kwargs):
        assert all(ref() is None for ref in live), "an earlier micro-batch's graph is still alive"
        loss = real(*args, **kwargs)
        live.extend((weakref.ref(loss.data), weakref.ref(loss.parents[0].data)))  # the loss and its logits
        return loss

    class WatchedAdamW(AdamW):
        def step(self, grads):
            assert all(ref() is None for ref in live), "the graph is still alive during the update"
            return super().step(grads)

    monkeypatch.setattr(trainer_module, "batch_loss", watched)
    monkeypatch.setattr(trainer_module, "AdamW", WatchedAdamW)
    log, _, _ = run_stage(_plan("C", max_steps=3), _trainer(corpus, _models()), Rng(1))
    assert len(log) > 3  # an interleaved batch follows its primary one
    assert len(live) == 2 * len(log)


def _decoder(monkeypatch, answer):
    """Replace `trainer.greedy_decode` with `answer(prompt)`; returns the
    list of (task, language, validity, modality, id) it is asked to decode."""
    seen = []

    def fake(backbone, prompt, max_new_tokens, projector=None, adapters=None):
        seen.append((prompt.task, prompt.language, prompt.validity, prompt.modality, prompt.id))
        return answer(prompt)

    monkeypatch.setattr(trainer_module, "greedy_decode", fake)
    return seen


def _perfect(prompt):
    return list(prompt.target_tokens[:-1])  # the answer without its end-of-answer token


def _empty(prompt):
    return []


def _dev_keys(corpus, task, languages, validities, modality, n):
    return [(task, lang, v, modality, e.id) for lang in languages for v in validities
            for e in corpus.splits[(task, lang, v, "dev")][:n]]


def test_st_dev_bleu_decodes_each_target_split_in_order(corpus, monkeypatch):
    m = _models()
    seen = _decoder(monkeypatch, _perfect)
    # Every ST dev answer here has at least 4 tokens, so a perfect output scores 100.
    assert trainer_module.st_dev_bleu(m["backbone"], corpus, 3, m["projector"], m["lora"], 2, 4) == (
        100.0, {lang: 100.0 for lang in TARGET_LANGUAGES})
    assert seen == _dev_keys(corpus, "ST", TARGET_LANGUAGES, ("valid",), "speech", 2)
    _decoder(monkeypatch, _empty)
    with pytest.warns(UserWarning, match="empty hypothesis"):
        assert trainer_module.st_dev_bleu(m["backbone"], corpus, 3, m["projector"], max_examples=2) == (
            0.0, {lang: 0.0 for lang in TARGET_LANGUAGES})
    # Each language is scored on its own outputs only.
    _decoder(monkeypatch, lambda p: _perfect(p) if p.language == "tgt2" else [])
    with pytest.warns(UserWarning, match="empty hypothesis"):
        assert trainer_module.st_dev_bleu(m["backbone"], corpus, 3, m["projector"], max_examples=2) == (
            100.0 / 3, {"tgt1": 0.0, "tgt2": 100.0, "tgt3": 0.0})


def test_task_dev_accuracy_decodes_one_split_in_order(corpus, monkeypatch):
    m = _models()
    seen = _decoder(monkeypatch, _perfect)
    assert trainer_module.task_dev_accuracy(m["backbone"], corpus, "MT", "tgt2", "text", 3, None, m["lora"], 3) == 1.0
    assert seen == _dev_keys(corpus, "MT", ("tgt2",), ("valid",), "text", 3)
    _decoder(monkeypatch, _empty)
    assert trainer_module.task_dev_accuracy(m["backbone"], corpus, "MT", "tgt2", "text", 3, max_examples=3) == 0.0


@pytest.mark.parametrize("task,modality", [("SQA", "speech"), ("QA", "text")])
def test_sqa_dev_accuracy_decodes_valid_then_invalid_per_language(corpus, monkeypatch, task, modality):
    m = _models()
    seen = _decoder(monkeypatch, _perfect)
    # An invalid example's answer is its language's not-answerable sequence,
    # which the judge accepts; a valid answer contains every reference token.
    acc = trainer_module.sqa_dev_accuracy(m["backbone"], corpus, ("src", "tgt1"), 3, m["projector"], m["lora"],
                                          modality=modality, task=task, max_examples=2)
    assert acc == 1.0
    assert seen == _dev_keys(corpus, task, ("src", "tgt1"), ("valid", "invalid"), modality, 2)
    _decoder(monkeypatch, _empty)
    assert trainer_module.sqa_dev_accuracy(m["backbone"], corpus, ("src", "tgt1"), 3, m["projector"],
                                           modality=modality, task=task, max_examples=2) == 0.0
