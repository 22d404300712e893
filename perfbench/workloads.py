"""The benchmark's workloads: fixed configs, set-up, the timed loop and the
checks on every output.

Each workload repeats a unit of work until its time is up: a training
round (`Trainer.run` over a fixed number of primary steps from the loaded
weights, then saving the stage output) or one full dev-evaluation pass.
Round i draws its batches from (seed, i), so a run covers many distinct
batches; a dev pass is the same every time. Either way a unit's results
are determined by its inputs and must repeat exactly.

Timed calls go through module attributes (`trainer.Trainer`,
`checkpoint.save_checkpoint`, ...) so the traced run's wrappers see them.
The checks run after the timed loop, once the wrappers are gone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import itertools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mmadapt import checkpoint, corpus, model, trainer
from mmadapt.corpus import CorpusConfig
from mmadapt.model import BackboneConfig, LoraConfig, ProjectorConfig
from mmadapt.rng import Rng
from mmadapt.sampler import SamplerConfig
from mmadapt.tensor import Tensor, no_grad
from mmadapt.trainer import OptimizerConfig, StagePlan
from mmadapt.vocab import EOS, LANGUAGES, TARGET_LANGUAGES

from . import layers
from .tracing import NullTracer, Tracer, lookup

_clock = time.perf_counter


@dataclass(frozen=True)
class Size:
    n_sentences: int  # corpus sentences per language pair
    n_contexts: int  # corpus QA contexts
    setup_reps: int  # set-ups per run; setup_s is their median
    pretrain_steps: int  # primary steps per pretrain_text round
    merge_steps: int  # primary steps per merge_speech_text round
    loss_window: int  # final_loss averages this many last micro-batches...
    loss_rounds: int  # ...of each of the first this many rounds
    dev_examples: dict  # dev examples per split in one evaluation pass
    max_new_tokens: int


SIZES = {
    "full": Size(1200, 240, 3, 40, 20, 20, 4, {"ST": 6, "SQA": 6, "MT": 6}, 16),
    # For the smoke test: every code path, in about a second per workload.
    "tiny": Size(48, 24, 1, 2, 2, 2, 2, {"ST": 1, "SQA": 1, "MT": 1}, 4),
}

# Weights come from this fixed seed; --seed chooses the corpus and the batch
# order. Decoding with seeded random weights stops at EOS after a number of
# tokens that depends on the weights, so weights that changed with --seed
# would change the decode work from seed to seed.
WEIGHTS_SEED = 0
BACKBONE = BackboneConfig()
PROJECTOR = ProjectorConfig()
LORA = LoraConfig()
SQA_LANGUAGES = ("src", "tgt1")


def _uniform(keys) -> dict:
    keys = list(keys)
    return {k: 1.0 / len(keys) for k in keys}


def _qa_splits() -> dict:
    return {(lang, v): p for lang in LANGUAGES for v, p in (("valid", 0.2), ("invalid", 0.05))}


def pretrain_plan(size: Size) -> StagePlan:
    # ASR, ST and MT render short sentences, QA long contexts: the median
    # step is a short one and p90 a QA one.
    return StagePlan(
        stage="pretrain",
        trainable=("backbone",),
        sampler=SamplerConfig(
            task_ratios={"ASR": 0.25, "ST": 0.25, "MT": 0.25, "QA": 0.25},
            split_ratios={
                "ASR": {("src", "valid"): 1.0},
                "ST": _uniform((lang, "valid") for lang in TARGET_LANGUAGES),
                "MT": _uniform((lang, "valid") for lang in LANGUAGES),
                "QA": _qa_splits(),
            },
            batch_size=16,
            text_mode=True,
        ),
        optimizers={"backbone": OptimizerConfig(lr=1e-3)},
        max_steps=size.pretrain_steps,
        eval_every=1,
        content_noise=0.1,
    )


def merge_plan(size: Size) -> StagePlan:
    # Step times form three modes (ASR < ST+MT < SQA+QA). With these ratios
    # the median step falls inside the ST mode and p90 inside the SQA mode,
    # not on the edge between two modes, where the percentile would jump
    # with the task mix a seed happens to draw.
    return StagePlan(
        stage="C",
        trainable=("projector", "lora"),
        sampler=SamplerConfig(
            task_ratios={"ASR": 0.25, "ST": 0.35, "SQA": 0.4},
            split_ratios={
                "ASR": {("src", "valid"): 1.0},
                "ST": _uniform((lang, "valid") for lang in TARGET_LANGUAGES),
                "SQA": _qa_splits(),
            },
            batch_size=16,
            interleave_text=True,
        ),
        optimizers={"projector": OptimizerConfig(lr=5e-4), "lora": OptimizerConfig(lr=1e-3)},
        max_steps=size.merge_steps,
        eval_every=1,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    components: tuple[str, ...]  # models built in set-up
    loaded: tuple[str, ...]  # components set-up loads from a checkpoint
    plan: object = None  # Size -> StagePlan, for training workloads


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pretrain_text", ("backbone",), (), pretrain_plan),
        Workload("merge_speech_text", ("backbone", "projector", "lora"), ("backbone", "projector", "lora"), merge_plan),
        Workload("dev_decode", ("backbone", "projector", "lora"), ("backbone", "projector", "lora")),
    )
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class State:
    corpus: corpus.Corpus
    models: dict  # component -> Backbone | SpeechProjector | LoraAdapters


def _init_models(components) -> dict:
    rng = Rng(WEIGHTS_SEED).split("bench-init")
    out = {"backbone": model.Backbone(BACKBONE, rng.split("backbone"))}
    if "projector" in components:
        out["projector"] = model.SpeechProjector(PROJECTOR, rng.split("projector"))
    if "lora" in components:
        out["lora"] = model.LoraAdapters(BACKBONE, LORA, rng.split("lora"))
    return out


def component_arrays(component, obj) -> dict[str, np.ndarray]:
    if component == "lora":
        return {k: t.data for k, t in obj.param_dict().items()}
    return obj.param_arrays()


def write_input_checkpoints(workload: Workload, directory: Path) -> dict[str, Path]:
    """The checkpoints set-up loads: seeded weights, with the adapters' B
    matrices non-zero so the LoRA path does real work."""
    models = _init_models(workload.loaded)
    if "lora" in models:
        arrays = component_arrays("lora", models["lora"])
        rng = Rng(WEIGHTS_SEED).split("bench-lora-B")
        for name, a in arrays.items():
            if name.endswith(".B"):
                arrays[name] = rng.split(name).normal(size=a.shape, scale=0.05).astype(a.dtype)
        models["lora"].load_arrays(arrays)
    paths = {}
    for comp in workload.loaded:
        paths[comp] = directory / f"input-{comp}.ckpt"
        checkpoint.save_checkpoint(comp, component_arrays(comp, models[comp]), {"seed": WEIGHTS_SEED}, paths[comp])
    return paths


def setup(workload: Workload, seed: int, size: Size, inputs: dict[str, Path], tracer) -> State:
    """Build the corpus, construct the models and load their checkpoints."""
    with tracer.span("corpus.build"):
        corp = corpus.build_corpus(CorpusConfig(seed=seed, n_sentences=size.n_sentences, n_contexts=size.n_contexts))
    with tracer.span("model.init"):
        models = _init_models(workload.components)
    if workload.loaded:
        with tracer.span("checkpoint.load"):
            for comp in workload.loaded:
                bundle = checkpoint.load_checkpoint(inputs[comp], expect_component=comp)
                models[comp].load_arrays(bundle.arrays)
    return State(corp, models)


# ---------------------------------------------------------------------------
# units of work
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    wall_s: float
    step_s: list[float]  # one per primary step, or per decoded example
    prompts: int
    outputs: list  # losses per micro-batch, or (key, prompt, tokens) per decoded example
    step_tasks: list[str] = field(default_factory=list)  # primary task of each training step
    step_prompts: list[int] = field(default_factory=list)  # prompts consumed by each training step
    saved: dict = field(default_factory=dict)  # component -> (arrays, digest, path)
    frozen_ok: bool = True


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _component_params(state: State, component: str) -> dict:
    obj = state.models[component]
    return obj.param_dict() if component == "lora" else obj.params


def training_unit_fn(workload: Workload, state: State, size: Size, seed: int, out_dir: Path):
    plan = workload.plan(size)
    models = state.models
    start = {c: {k: t.data for k, t in _component_params(state, c).items()} for c in plan.trainable}
    frozen = [c for c in models if c not in plan.trainable]
    frozen_ref = {c: {k: a.copy() for k, a in component_arrays(c, models[c]).items()} for c in frozen}
    k = PROJECTOR.frame_avg_k if "projector" in models else 1
    file_ids = itertools.count()

    def unit(tracer, index: int) -> Unit:
        """Round `index`: its own batches, from the loaded weights."""
        for c, arrays in start.items():
            for name, t in _component_params(state, c).items():
                t.data = arrays[name].copy()
        tr = trainer.Trainer(
            models["backbone"], state.corpus, k, projector=models.get("projector"), adapters=models.get("lora")
        )
        stamps = []

        def stamp():
            stamps.append(_clock())
            return 0.0, {}

        t0 = _clock()
        with tracer.span("trainer.run"):
            log, _, snaps = tr.run(plan, Rng(seed).split("bench-train", str(index)), eval_fn=stamp)
        saved = {}
        with tracer.span("checkpoint.save"):
            for comp, arrays in snaps.items():
                path = out_dir / f"round{next(file_ids)}-{comp}.ckpt"
                saved[comp] = (arrays, checkpoint.save_checkpoint(comp, arrays, {"round": index}, path), path)
        wall = _clock() - t0
        frozen_ok = all(
            np.array_equal(a, frozen_ref[c][name]) and a.dtype == frozen_ref[c][name].dtype
            for c in frozen
            for name, a in component_arrays(c, models[c]).items()
        )
        step_tasks, step_prompts = [], []
        for r in log:  # a primary entry, then its interleaved text entry if any
            if len(step_tasks) <= r.step:
                step_tasks.append(r.task)
                step_prompts.append(0)
            step_prompts[-1] += plan.sampler.task_batch_size(r.task)
        return Unit(
            wall_s=wall,
            step_s=list(np.diff([t0] + stamps)),
            prompts=sum(step_prompts),
            step_tasks=step_tasks,
            step_prompts=step_prompts,
            outputs=[r.loss for r in log],
            saved=saved,
            frozen_ok=frozen_ok,
        )

    return unit


def decode_unit_fn(state: State, size: Size):
    models = state.models
    backbone, projector, adapters = models["backbone"], models["projector"], models["lora"]
    k = PROJECTOR.frame_avg_k
    n = size.dev_examples
    signature = inspect.signature(lookup(trainer, "greedy_decode"))

    def unit(tracer, index: int) -> Unit:
        """One full dev-evaluation pass; every pass is the same."""
        records = []
        inner = lookup(trainer, "greedy_decode")

        def probe(*args, **kwargs):
            t = _clock()
            out = inner(*args, **kwargs)
            dt = _clock() - t
            records.append((dt, signature.bind(*args, **kwargs).arguments["prompt"], out))
            return out

        trainer.greedy_decode = probe
        try:
            t0 = _clock()
            trainer.st_dev_bleu(
                backbone, state.corpus, k, projector, adapters,
                max_examples=n["ST"], max_new_tokens=size.max_new_tokens,
            )
            trainer.sqa_dev_accuracy(
                backbone, state.corpus, SQA_LANGUAGES, k, projector=projector, adapters=adapters,
                max_examples=n["SQA"], max_new_tokens=size.max_new_tokens,
            )
            for lang in TARGET_LANGUAGES:
                trainer.task_dev_accuracy(
                    backbone, state.corpus, "MT", lang, "text", k, projector=projector, adapters=adapters,
                    max_examples=n["MT"], max_new_tokens=size.max_new_tokens,
                )
            wall = _clock() - t0
        finally:
            trainer.greedy_decode = inner
        return Unit(
            wall_s=wall,
            step_s=[dt for dt, _, _ in records],
            prompts=len(records),
            outputs=[((p.task, p.language, p.validity, p.modality, p.id), p, list(out)) for _, p, out in records],
        )

    return unit


def measure(unit, seconds: float, tracer) -> list[Unit]:
    """Run units 0, 1, 2, ... until `seconds` have passed, at least one."""
    units = []
    t0 = _clock()
    while not units or _clock() - t0 < seconds:
        units.append(unit(tracer, len(units)))
    return units


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.problems.append(what)


def check_training(units: list[Unit], checks: Checks) -> None:
    """Every loss finite; frozen components bit-identical; each stage output
    survives a checkpoint round trip with equal arrays and digest."""
    for i, u in enumerate(units):
        for j, loss in enumerate(u.outputs):
            checks.check(bool(np.isfinite(loss)), f"round {i}: loss {j} is not finite")
        checks.check(u.frozen_ok, f"round {i}: a frozen component changed")
        for comp, (arrays, digest, path) in u.saved.items():
            bundle = checkpoint.load_checkpoint(path, expect_component=comp)
            same = bundle.digest == digest and set(bundle.arrays) == set(arrays) and all(
                np.array_equal(bundle.arrays[name], a) for name, a in arrays.items()
            )
            checks.check(same, f"round {i}: {comp} checkpoint round trip differs")
            Path(path).unlink()


def greedy_tolerance(row: np.ndarray) -> float:
    """Logits from two forwards over the same prefix may differ by float32
    rounding (different matmul shapes); 256 ulps of the largest logit."""
    return 256 * float(np.finfo(np.float32).eps) * max(1.0, float(np.abs(row).max()))


def check_greedy(state: State, prompt, output: list[int], cap: int) -> tuple[bool, float, int]:
    """Verify one output against greedy decoding's definition with a single
    teacher-forced forward over prompt + output: every emitted token holds
    the max logit at its position, and decoding stopped exactly at EOS or at
    the cap. Returns (ok, summed NLL of the emitted tokens and stop token,
    their count)."""
    backbone, projector, adapters = (state.models[c] for c in ("backbone", "projector", "lora"))
    with no_grad():
        speech = None
        if prompt.frames is not None:
            speech = projector.forward(Tensor(prompt.frames.astype(projector.dtype)), train=False)
        content = list(prompt.content_tokens) if prompt.content_tokens is not None else []
        sp = model.splice_prompt(
            backbone.params["wte"], list(prompt.prefix_tokens) + content, speech,
            list(prompt.suffix_tokens), output, backbone.cfg.max_seq_len,
        )
        logits = backbone.forward(sp.embeddings, sp.positions, lora=adapters).data.astype(np.float64)
    start = len(sp.token_ids) - len(output) - 1
    expected = list(output) + ([EOS] if len(output) < cap else [])
    ok = len(output) <= cap and EOS not in output
    nll = 0.0
    for i, tok in enumerate(expected):
        row = logits[start + i]
        ok = ok and row[tok] >= row.max() - greedy_tolerance(row)
        top = row.max()
        nll += float(top + np.log(np.exp(row - top).sum()) - row[tok])
    return ok, nll, len(expected)


def check_decoding(state: State, units: list[Unit], cap: int, checks: Checks) -> float:
    """Check every output of the first pass, and every pass against the
    first; returns the mean NLL per checked token."""
    reference = units[0].outputs
    nll, tokens = 0.0, 0
    for key, prompt, out in reference:
        ok, s, n = check_greedy(state, prompt, out, cap)
        checks.check(ok, f"{key}: output {out} is not the greedy decode")
        nll, tokens = nll + s, tokens + n
    for i, u in enumerate(units):
        got = [(key, out) for key, _, out in u.outputs]
        want = [(key, out) for key, _, out in reference]
        checks.check(got == want, f"pass {i}: outputs differ from the first pass", count=max(1, len(want)))
    return nll / max(tokens, 1)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def mix_throughput(units: list[Unit], task_ratios: dict[str, float]) -> float:
    """Prompts per second at the plan's task mix.

    Per task, the mean prompts and seconds of its steps are weighted by the
    configured task ratio, not by how often the seed happened to draw it;
    time outside the steps (saving the stage output) is spread over all
    steps. A run draws a few hundred steps, so the drawn mix alone would
    move the figure by several percent from seed to seed."""
    prompts, seconds, count = defaultdict(int), defaultdict(float), defaultdict(int)
    for u in units:
        for task, p, dt in zip(u.step_tasks, u.step_prompts, u.step_s):
            prompts[task] += p
            seconds[task] += dt
            count[task] += 1
    weights = {t: r for t, r in task_ratios.items() if r > 0 and count[t]}
    z = sum(weights.values())
    outside = sum(u.wall_s - sum(u.step_s) for u in units) / sum(count.values())
    mean_prompts = sum(r / z * prompts[t] / count[t] for t, r in weights.items())
    mean_seconds = sum(r / z * seconds[t] / count[t] for t, r in weights.items()) + outside
    return mean_prompts / mean_seconds


def _percentile_ms(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * 1000.0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def output_digest(workload: Workload, unit: Unit) -> str:
    if workload.plan is not None:
        return _digest([float(x).hex() for x in unit.outputs])
    return _digest([[list(key), out] for key, _, out in unit.outputs])


def _jsonable(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {"/".join(k) if isinstance(k, tuple) else str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def fixed_config(workload: Workload, size: Size) -> dict:
    cfg = {
        "size": _jsonable(size),
        "backbone": _jsonable(BACKBONE),
        "projector": _jsonable(PROJECTOR) if "projector" in workload.components else None,
        "lora": _jsonable(LORA) if "lora" in workload.components else None,
        "loaded_checkpoints": list(workload.loaded),
    }
    if workload.plan is not None:
        cfg["plan"] = _jsonable(workload.plan(size))
    else:
        cfg["dev_pass"] = {
            "st_dev_bleu": {"languages": list(TARGET_LANGUAGES), "max_examples": size.dev_examples["ST"]},
            "sqa_dev_accuracy": {"languages": list(SQA_LANGUAGES), "validity": ["valid", "invalid"],
                                 "max_examples": size.dev_examples["SQA"]},
            "task_dev_accuracy": {"task": "MT", "modality": "text", "languages": list(TARGET_LANGUAGES),
                                  "max_examples": size.dev_examples["MT"]},
            "max_new_tokens": size.max_new_tokens,
        }
    return cfg


def run(name: str, seed: int, seconds: float, trace: bool, size_name: str, work_dir: Path) -> dict:
    """One run of one workload. Returns metrics (name -> (value, unit)),
    extra printed figures, check counts, digests and the trace summary."""
    workload = WORKLOADS[name]
    size = SIZES[size_name]
    tracer = Tracer() if trace else NullTracer()
    inputs = write_input_checkpoints(workload, work_dir)

    setup_s = []
    for _ in range(size.setup_reps):
        t0 = _clock()
        state = setup(workload, seed, size, inputs, tracer)
        setup_s.append(_clock() - t0)

    training = workload.plan is not None
    unit = (
        training_unit_fn(workload, state, size, seed, work_dir) if training else decode_unit_fn(state, size)
    )
    checks = Checks()
    if trace:
        # Half the time untraced, half traced: the overhead is their ratio,
        # and the traced outputs must equal the untraced ones bit for bit.
        plain = measure(unit, seconds / 2, NullTracer())
        try:
            layers.install(tracer)
            traced = measure(unit, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        units = plain + traced
        checks.check(
            output_digest(workload, traced[0]) == output_digest(workload, plain[0]),
            "traced outputs differ from untraced outputs",
        )
    else:
        units = measure(unit, seconds, tracer)
    digest = output_digest(workload, units[0])

    steps = [s for u in units for s in u.step_s]
    extra = {}
    final_loss = None
    if training:
        check_training(units, checks)
        if not trace:
            # Untimed: round 0 once more, and any of the first loss_rounds
            # rounds that the timed loop did not reach.
            again = unit(NullTracer(), 0)
            checks.check(output_digest(workload, again) == digest, "round 0 did not repeat")
            loss_units = units[: size.loss_rounds]
            loss_units += [unit(NullTracer(), i) for i in range(len(loss_units), size.loss_rounds)]
            check_training([again] + loss_units[len(units) :], checks)
            final_loss = float(np.mean([np.mean(u.outputs[-size.loss_window :]) for u in loss_units]))
    else:
        final_loss = check_decoding(state, units, size.max_new_tokens, checks)
        if not trace:
            generated = sum(len(out) for u in units for _, _, out in u.outputs)
            extra["decode_tokens_per_s"] = (generated / sum(u.wall_s for u in units), "tok/s")
            extra["eval_pass_s"] = (statistics.median(u.wall_s for u in units), "s")
    extra["error_rate"] = (checks.failed / checks.attempted, "fraction")

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "extra": extra,
        "digests": {"loss_trace" if training else "decoded_tokens": digest},
        "config": fixed_config(workload, size),
        "setup_s": setup_s,
        "units": [{"wall_s": u.wall_s, "prompts": u.prompts, "steps": len(u.step_s)} for u in units],
    }
    if trace:
        n = min(len(plain), len(traced))  # units 0..n-1 ran both ways
        overhead = sum(u.wall_s for u in traced[:n]) / sum(u.wall_s for u in plain[:n])
        result["metrics"] = layers.per_layer_metrics(
            tracer,
            steps=sum(len(u.step_s) for u in traced),
            rounds=len(traced) if training else 0,
            generated_tokens=0 if training else sum(len(out) for u in traced for _, _, out in u.outputs),
            overhead=overhead,
        )
        result["tracer"] = tracer
    else:
        result["metrics"] = {
            "setup_s": (statistics.median(setup_s), "s"),
            "prompts_per_s": (
                mix_throughput(units, workload.plan(size).sampler.task_ratios)
                if training
                else sum(u.prompts for u in units) / sum(u.wall_s for u in units),
                "prompts/s",
            ),
            "step_ms_p50": (_percentile_ms(steps, 50), "ms"),
            "step_ms_p90": (_percentile_ms(steps, 90), "ms"),
            "final_loss": (final_loss, "nats"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    return result
