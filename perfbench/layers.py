"""Which public names of `mmadapt` the traced run wraps, and how its spans
become the per-layer metrics.

Layers are the package's modules. `rng` and `vocab` do no timed work and
are not wrapped. Spans for set-up (`corpus.build`, `model.init`,
`checkpoint.load`) and for saving a stage's output (`checkpoint.save`)
come from the benchmark's own calls; every other span comes from a
wrapper installed here.
"""

from __future__ import annotations

import numpy as np

from mmadapt import decode, model, tensor, trainer

from .tracing import Tracer

# Public tensor function -> op name in the per-layer metrics. `stack` is a
# concatenation along a new axis and records the `concat` op.
TENSOR_OPS = {
    "matmul": "matmul",
    "add": "add",
    "scale": "scale",
    "gelu": "gelu",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "tslice": "slice",
    "concat": "concat",
    "stack": "concat",
    "embedding_lookup": "embedding_lookup",
    "dropout": "dropout",
    "masked_cross_entropy": "cross_entropy",
}
OP_NAMES = tuple(dict.fromkeys(TENSOR_OPS.values()))

# The tensor functions each module binds with `from .tensor import ...`
# (for `tensor` itself: the names its own methods call).
OP_BINDINGS = (
    (tensor, tuple(TENSOR_OPS)),
    (
        model,
        ("add", "concat", "dropout", "embedding_lookup", "gelu", "layer_norm", "masked_cross_entropy",
         "matmul", "scale", "softmax", "tslice"),
    ),
    (trainer, ("add", "concat", "embedding_lookup", "masked_cross_entropy", "scale", "stack", "tslice")),
    (decode, ("concat", "embedding_lookup")),
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def install(tracer: Tracer) -> None:
    """Wrap every traced public name; raises `MissingNameError` naming the
    first one that no longer exists."""
    counters = tracer.counters

    def count_requested(args, kwargs, result):
        counters["render_requested"] += len(result)

    def count_padding(args, kwargs, result):
        lengths = [len(p) for p in _arg(args, kwargs, 1, "prompts")]
        counters["batch_rows"] += len(lengths) * max(lengths)
        counters["pad_rows"] += len(lengths) * max(lengths) - sum(lengths)

    def count_tape(args, kwargs, result):
        counters["graph_nodes"] += len(tensor.tape_of(_arg(args, kwargs, 0, "loss")).nodes)

    def count_rows(args, kwargs, result):
        counters["backbone_rows"] += int(np.prod(_arg(args, kwargs, 1, "emb").shape[:-1]))

    for module, names in OP_BINDINGS:
        for name in names:
            tracer.wrap(module, name, f"tensor.{TENSOR_OPS[name]}")
    tracer.wrap(trainer, "plan_epoch", "sampler.plan_epoch")
    tracer.wrap(trainer, "render_prompt", "prompting.render")
    tracer.wrap(trainer.Trainer, "render_batch", "trainer.render_batch", count_requested)
    tracer.wrap(trainer, "batch_loss", "trainer.batch_loss", count_padding)
    tracer.wrap(trainer, "grad", "trainer.backward", count_tape)
    tracer.wrap(trainer.AdamW, "step", "trainer.optimizer")
    tracer.wrap(model.Backbone, "forward", "model.backbone_forward", count_rows)
    tracer.wrap(model.SpeechProjector, "forward", "model.projector_forward")
    tracer.wrap(trainer, "splice_prompt", "model.splice")
    tracer.wrap(decode, "splice_prompt", "model.splice")
    tracer.wrap(trainer, "greedy_decode", "decode.call")
    for name in ("bleu4", "sequence_accuracy", "qa_accuracy"):
        tracer.wrap(trainer, name, "metrics.score")


# name -> unit, in report order. Times and counts marked "/step" are per
# primary training step, or per decoded dev example on `dev_decode`.
PER_LAYER_UNITS = {
    "corpus.build_s": "s",
    "model.init_s": "s",
    "checkpoint.load_ms": "ms",
    "checkpoint.save_ms": "ms/round",
    "sampler.plan_epoch_ms": "ms/step",
    "sampler.calls": "calls/step",
    "prompting.render_ms": "ms/step",
    "prompting.render_calls": "calls/step",
    "trainer.render_hit_ratio": "fraction",
    "trainer.batch_loss_ms": "ms/step",
    "trainer.backward_ms": "ms/step",
    "trainer.optimizer_ms": "ms/step",
    "trainer.other_ms": "ms/step",
    "trainer.micro_batches": "1/step",
    "trainer.optimizer_steps": "1/step",
    "model.backbone_forward_ms": "ms/step",
    "model.backbone_forward_calls": "calls/step",
    "model.backbone_rows": "rows/step",
    "model.pad_fraction": "fraction",
    "model.projector_forward_ms": "ms/step",
    "model.projector_forward_calls": "calls/step",
    "model.splice_ms": "ms/step",
    **{f"tensor.{op}_{kind}": ("ms/step" if kind == "ms" else "calls/step") for op in OP_NAMES for kind in ("ms", "calls")},
    "tensor.graph_nodes": "nodes/micro",
    "decode.call_ms_p50": "ms",
    "decode.generated_tokens": "tok/call",
    "decode.forward_calls_per_token": "calls/tok",
    "decode.rows_per_token": "rows/tok",
    "metrics.score_ms": "ms/step",
    "trace.overhead": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _median(tracer: Tracer, name: str, scale: float = 1000.0) -> float:
    """Median duration of the `name` spans, in ms by default."""
    d = tracer.durations(name)
    return float(np.median(d)) * scale if d.size else 0.0


def per_layer_metrics(tracer: Tracer, steps: int, rounds: int, generated_tokens: int, overhead: float) -> dict:
    """Per-layer values from the traced units: `steps` primary steps (or
    decoded examples) in `rounds` training rounds (0 on `dev_decode`)."""
    c = tracer.counters

    def per_step_ms(name: str) -> float:
        return 1000.0 * tracer.total_s(name) / steps

    def per_step_calls(name: str) -> float:
        return tracer.n_calls(name) / steps

    requested = c["render_requested"]
    rendered_in_batches = tracer.n_calls_under("prompting.render", "trainer.render_batch")
    m = {
        "corpus.build_s": _median(tracer, "corpus.build", 1.0),
        "model.init_s": _median(tracer, "model.init", 1.0),
        "checkpoint.load_ms": _median(tracer, "checkpoint.load"),
        "checkpoint.save_ms": 1000.0 * _ratio(tracer.total_s("checkpoint.save"), rounds),
        "sampler.plan_epoch_ms": per_step_ms("sampler.plan_epoch"),
        "sampler.calls": per_step_calls("sampler.plan_epoch"),
        "prompting.render_ms": per_step_ms("prompting.render"),
        "prompting.render_calls": per_step_calls("prompting.render"),
        "trainer.render_hit_ratio": _ratio(requested - rendered_in_batches, requested),
        "trainer.batch_loss_ms": per_step_ms("trainer.batch_loss"),
        "trainer.backward_ms": per_step_ms("trainer.backward"),
        "trainer.optimizer_ms": per_step_ms("trainer.optimizer"),
        # The step minus every timed part inside it: loop, gradient
        # accumulation and render-cache lookups.
        "trainer.other_ms": 1000.0 * (tracer.self_s("trainer.run") + tracer.self_s("trainer.render_batch")) / steps,
        "trainer.micro_batches": per_step_calls("trainer.batch_loss"),
        "trainer.optimizer_steps": per_step_calls("trainer.optimizer"),
        "model.backbone_forward_ms": per_step_ms("model.backbone_forward"),
        "model.backbone_forward_calls": per_step_calls("model.backbone_forward"),
        "model.backbone_rows": c["backbone_rows"] / steps,
        "model.pad_fraction": _ratio(c["pad_rows"], c["batch_rows"]),
        "model.projector_forward_ms": per_step_ms("model.projector_forward"),
        "model.projector_forward_calls": per_step_calls("model.projector_forward"),
        "model.splice_ms": per_step_ms("model.splice"),
    }
    for op in OP_NAMES:
        m[f"tensor.{op}_ms"] = per_step_ms(f"tensor.{op}")
        m[f"tensor.{op}_calls"] = per_step_calls(f"tensor.{op}")
    decode_calls = tracer.n_calls("decode.call")
    m.update(
        {
            "tensor.graph_nodes": _ratio(c["graph_nodes"], tracer.n_calls("trainer.backward")),
            "decode.call_ms_p50": _median(tracer, "decode.call"),
            "decode.generated_tokens": _ratio(generated_tokens, decode_calls),
            "decode.forward_calls_per_token": _ratio(tracer.n_calls("model.backbone_forward"), generated_tokens)
            if decode_calls
            else 0.0,
            "decode.rows_per_token": _ratio(c["backbone_rows"], generated_tokens) if decode_calls else 0.0,
            "metrics.score_ms": per_step_ms("metrics.score"),
            "trace.overhead": overhead,
        }
    )
    return {name: (m[name], unit) for name, unit in PER_LAYER_UNITS.items()}
