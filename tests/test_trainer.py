import weakref

import numpy as np
import pytest

from mmadapt import model as model_module
from mmadapt import trainer as trainer_module

from mmadapt.corpus import CorpusConfig, build_corpus
from mmadapt.errors import ConfigError, ContractViolation, ShapeError, TrainingDivergenceError
from mmadapt.model import Backbone, BackboneConfig, LoraAdapters, LoraConfig, ProjectorConfig, SpeechProjector
from mmadapt.prompting import render_prompt
from mmadapt.rng import Rng
from mmadapt.sampler import SamplerConfig
from mmadapt.tensor import grad, parameter, tape_of
from mmadapt.trainer import EPS, AdamW, OptimizerConfig, StagePlan, Trainer, batch_loss, run_stage
from mmadapt.vocab import LANGUAGES, TARGET_LANGUAGES

from references import PerTensorAdamW, corpus_split, full_grid_text_loss, per_example_batch_loss

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


def _assert_target_logits_equal(loss, ref, prompts):
    """The logits (the loss's parent) are one row per target token, and the
    two assemblies agree on every one of them."""
    logits, ref_logits = loss.parents[0].data, ref.parents[0].data
    assert logits.shape == (sum(len(p.target_tokens) for p in prompts), BB.vocab_size)
    np.testing.assert_array_equal(logits, ref_logits)


def _tape_ops(loss) -> list[str]:
    return [node.op for node in tape_of(loss).nodes]


@pytest.mark.parametrize("content_noise", [0.0, 0.1])
def test_text_batch_grid_matches_the_per_example_assembly(corpus, content_noise):
    prompts = _unequal(corpus, "MT", "text", len)  # padded rows
    (loss, g), (ref, g_ref) = _grid_and_reference(_models(), prompts, ("backbone",), content_noise=content_noise)
    np.testing.assert_array_equal(loss.data, ref.data)
    _assert_target_logits_equal(loss, ref, prompts)
    assert set(g) == set(g_ref)
    for name in g:
        if name == "backbone.wte":  # float32 scatter-adds in another order
            np.testing.assert_allclose(g[name], g_ref[name], rtol=0, atol=1e-6 * np.abs(g_ref[name]).max())
        else:
            np.testing.assert_array_equal(g[name], g_ref[name], err_msg=name)
    ops = _tape_ops(loss)
    assert ops.count("embedding-lookup") == 2 and "concat" not in ops  # the grid and wpe
    assert ops.count("slice") == 1  # the target rows


def test_speech_batch_grid_matches_the_per_example_assembly(corpus):
    prompts = _unequal(corpus, "ST", "speech", lambda p: p.frames.shape[0])  # padded frames
    assert PROJ.dropout > 0
    (loss, g), (ref, g_ref) = _grid_and_reference(_models(), prompts, ("lora", "projector"))
    np.testing.assert_array_equal(loss.data, ref.data)
    _assert_target_logits_equal(loss, ref, prompts)
    assert set(g) == set(g_ref)
    for name in g:
        np.testing.assert_array_equal(g[name], g_ref[name], err_msg=name)
    ops = _tape_ops(loss)
    assert ops.count("slice") == 2  # the valid rows and the target rows
    # The speech rows joined onto the token table, and one fold node per
    # adapted weight: each layer's wqkv (its q and k blocks), wo, ffn_up and
    # ffn_down, with no adapter product or scale of its own.
    assert LORA.targets == ("attn_q", "attn_k", "attn_out", "ffn_up", "ffn_down")
    assert ops.count("concat") == 1
    assert ops.count("add-low-rank") == 4 * BB.n_layers
    assert not {"matmul", "scale"} & set(ops)


@pytest.mark.parametrize("component", ["backbone", "lora"])
def test_target_row_loss_matches_the_full_grid_masked_loss(corpus, component):
    # Logits only at the positions that predict a target: the same loss and
    # gradients as logits everywhere with the loss masked to those positions,
    # up to the order of float32 sums (measured: at most 1 ulp of the loss,
    # below 1 ulp of each gradient's largest entry).
    models = _models()
    for c, obj in models.items():
        obj.set_trainable(c == component)
    adapters = models["lora"] if component == "lora" else None
    if adapters is not None:  # non-zero B, so the adapters change the logits
        for name, t in adapters.params.items():
            if name.endswith(".B"):
                t.data = (Rng(6).split(name).normal(size=t.shape) * 0.3).astype(np.float32)
    prompts = _unequal(corpus, "QA", "text", len)
    loss = batch_loss(models["backbone"], prompts, adapters=adapters)
    ref = full_grid_text_loss(models["backbone"], prompts, adapters=adapters)
    assert ref.parents[0].shape[:2] == (3, max(len(p) for p in prompts))  # ref's logits span the grid
    eps = float(np.finfo(np.float32).eps)
    np.testing.assert_allclose(loss.data, ref.data, rtol=4 * eps)
    params = list(models[component].params.values())
    g, g_ref = grad(loss, params), grad(ref, params)
    for t in params:
        np.testing.assert_allclose(g[t].data, g_ref[t].data, rtol=0, atol=8 * eps * np.abs(g_ref[t].data).max())


def test_adamw_first_step_moves_each_weight_by_lr_against_its_gradient():
    # After one step the bias-corrected moments give m_hat / (sqrt(v_hat) + EPS) = g / (|g| + EPS).
    w, g = np.array([1.0, -2.0, 0.5]), np.array([3.0, -0.25, 1e-3])
    p = parameter(w.copy())
    opt = AdamW({"w": p}, OptimizerConfig(lr=0.1))
    assert opt.step({"w": g}) == 0.1
    np.testing.assert_allclose(p.data, w - 0.1 * g / (np.abs(g) + EPS), rtol=1e-9)


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
    ref = PerTensorAdamW({k: t.data for k, t in params.items()}, cfg.lr)
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


def test_in_place_adamw_matches_the_out_of_place_formula_over_every_gradient_scale():
    # float32 gradients from 1e-12 (sqrt(v_hat) far below EPS) to 1e3, and
    # exact zeros, over twelve steps: every weight and moment equal bit for bit.
    rng = Rng(72)
    shapes = {"w": (16, 8), "b": (8,)}
    params = {k: parameter(rng.split(k).normal(size=s).astype(np.float32)) for k, s in shapes.items()}
    ref = PerTensorAdamW({k: t.data for k, t in params.items()}, 3e-3)
    opt = AdamW(params, OptimizerConfig(lr=3e-3))
    for step in range(12):
        grads = {}
        for k, s in shapes.items():
            r = rng.split("g", str(step), k)
            g = r.normal(size=s) * 10.0 ** r.integers(-12, 4, size=s)
            grads[k] = np.where(r.uniform(size=s) < 0.1, 0.0, g).astype(np.float32)
        assert opt.step(grads) == ref.step(grads)
        for k, t in params.items():
            np.testing.assert_array_equal(t.data, ref.arrays[k])
            np.testing.assert_array_equal(opt.state["m"][k], ref.m[k])
            np.testing.assert_array_equal(opt.state["v"][k], ref.v[k])


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


def test_run_plans_only_the_steps_it_trains(corpus, monkeypatch):
    # Epochs of 2 steps for a 5-step budget: 2 + 2 + 1 steps planned, and
    # the planned steps are the ones trained, in order.
    real, planned = trainer_module.plan_epoch, []

    def recording(*args):
        schedule = real(*args)
        planned.append(schedule.steps)
        return schedule

    monkeypatch.setattr(trainer_module, "plan_epoch", recording)
    plan = StagePlan("A", ("projector",), _sampler(("ASR", "ST"), interleave_text=False, epoch_steps=2),
                     {"projector": OptimizerConfig(lr=1e-3)}, max_steps=5)
    log, _, _ = _trainer(corpus, _models()).run(plan, Rng(1))
    assert [len(steps) for steps in planned] == [2, 2, 1]
    assert [(r.step, r.task) for r in log] == [(i, step[0].task) for i, step in enumerate(s for ss in planned for s in ss)]


def test_each_planned_batch_renders_the_examples_it_holds_in_order(corpus, monkeypatch):
    # A stage-C plan of 2 steps: every example of every entry, primary and
    # interleaved, is rendered once, in plan order, as the object the
    # sampler drew.
    real_plan, real_render, planned, rendered = trainer_module.plan_epoch, trainer_module.render_prompt, [], []

    def recording_plan(*args):
        schedule = real_plan(*args)
        planned.extend(schedule.entries)
        return schedule

    def recording_render(example, modality, *args):
        rendered.append((example, modality))
        return real_render(example, modality, *args)

    monkeypatch.setattr(trainer_module, "plan_epoch", recording_plan)
    monkeypatch.setattr(trainer_module, "render_prompt", recording_render)
    log, _, _ = run_stage(_plan("C"), _trainer(corpus, _models()), Rng(1))
    assert len(planned) == len(log) > 2  # some step had an interleaved text batch
    expected = [(ex, e.modality) for e in planned for ex in e.examples]
    assert [(ex.id, m) for ex, m in rendered] == [(ex.id, m) for ex, m in expected]
    assert all(ex is want for (ex, _), (want, _) in zip(rendered, expected))


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

    def fake(backbone, prompt, max_new_tokens, projector=None, weights=None):
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


def test_a_dev_metric_call_folds_the_adapters_once(corpus, monkeypatch):
    # Four layers with the default targets adapt wqkv, wo, ffn_up and
    # ffn_down: 16 folded weights for the whole call, not 16 per prompt.
    cfg = BackboneConfig(vocab_size=96, d_model=16, n_layers=4, n_heads=2, d_ffn=24)
    backbone = Backbone(cfg, Rng(5))
    adapters = LoraAdapters(cfg, LoraConfig(), Rng(6))
    folds, decoded = [], []

    def counting(*args, **kwargs):
        folds.append(args[0])
        return add_low_rank(*args, **kwargs)

    def recording(backbone, prompt, max_new_tokens, projector=None, weights=None):
        decoded.append(weights)
        return greedy_decode(backbone, prompt, max_new_tokens, projector=projector, weights=weights)

    add_low_rank = model_module.add_low_rank
    greedy_decode = trainer_module.greedy_decode
    monkeypatch.setattr(model_module, "add_low_rank", counting)
    monkeypatch.setattr(trainer_module, "greedy_decode", recording)
    trainer_module.task_dev_accuracy(backbone, corpus, "MT", "tgt1", "text", 3, adapters=adapters, max_examples=5)
    assert len(decoded) == 5 and len(folds) == 4 * cfg.n_layers == 16
    weights = decoded[0]
    assert all(w is weights for w in decoded)
    folded = [name for name, t in weights.items() if t is not backbone.params[name]]
    assert len(folded) == 16
    assert all(t.requires_grad for t in adapters.params.values())
    assert not any(weights[name].requires_grad or weights[name].parents for name in folded)


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


def _prompt(corpus, task, modality):
    return render_prompt(corpus_split(corpus, task, "tgt1")[0], modality, corpus.vocab, PROJ.frame_avg_k)


def _diverging_run(corpus):
    models = _models()
    lm_head = models["backbone"].params["lm_head"]
    lm_head.data = np.full_like(lm_head.data, np.nan)
    return _trainer(corpus, models).run(_plan("pretrain"), Rng(0))


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda corpus: OptimizerConfig(lr=0.0), ConfigError, "lr must be positive", id="lr"),
    pytest.param(lambda corpus: AdamW({"a": parameter(np.zeros(2, np.float32)), "b": parameter(np.zeros(2))},
                                      OptimizerConfig()),
                 ContractViolation, "one dtype", id="adamw-mixed-dtypes"),
    pytest.param(lambda corpus: batch_loss(_models()["backbone"], [_prompt(corpus, "ST", "speech")]),
                 ConfigError, "needs a projector", id="speech-without-projector"),
    pytest.param(lambda corpus: batch_loss(_models()["backbone"], [_prompt(corpus, "MT", "text")], train=True,
                                           content_noise=0.1),
                 ConfigError, "content noise needs an rng", id="noise-without-rng"),
    pytest.param(lambda corpus: batch_loss(_models()["backbone"], []), ContractViolation, "at least one row",
                 id="empty-batch"),
    pytest.param(lambda corpus: StagePlan("A", ("projector",), _sampler(("ASR", "ST"), interleave_text=False), {},
                                          max_steps=1),
                 ConfigError, "no optimizer config", id="no-optimizer"),
    pytest.param(lambda corpus: StagePlan("C", ("projector", "lora"), _sampler(("ASR", "ST", "SQA")),
                                          {"projector": OptimizerConfig(lr=1e-3), "lora": OptimizerConfig(lr=1e-3)},
                                          max_steps=1),
                 ConfigError, "distinct per-component learning rates", id="merge-equal-lrs"),
    pytest.param(lambda corpus: _plan("B", max_steps=0), ConfigError, "max_steps", id="max-steps"),
    pytest.param(lambda corpus: _trainer(corpus, _models()).run(_plan("B", eval_every=3), Rng(0),
                                                                eval_fn=lambda: (0.0, {})),
                 ConfigError, "cadence", id="eval-cadence"),
    pytest.param(_diverging_run, TrainingDivergenceError, "loss diverged at step 0", id="non-finite-loss"),
])
def test_trainer_checks_raise_their_typed_errors(corpus, call, error, match):
    with pytest.raises(error, match=match) as raised:
        call(corpus)
    assert type(raised.value) is error
