"""Reference ops, checks and accessors that only the tests use.

`mul` and `mean` build graph nodes the way the ops in `mmadapt.tensor` do,
so test losses can reduce any output to a scalar; `finite_diff_check`
compares analytic gradients with central differences. `empirical_ratios`
and `check_interleaving` read a sampler schedule back. `embed`,
`corpus_split` and `effective_question_theme` are shorthands for reading a
backbone, a corpus and an example.
"""

import numpy as np

from mmadapt.corpus import Corpus, Example
from mmadapt.errors import ContractViolation
from mmadapt.model import Backbone
from mmadapt.sampler import TEXT_EQUIVALENT, BatchSchedule
from mmadapt.tensor import Tensor, _as_tensor, _make_node, _unbroadcast, embedding_lookup, grad


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    y = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make_node("elementwise-product", y, (a, b), backward)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    y = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else np.prod([x.data.shape[a] for a in np.atleast_1d(axis)])

    def backward(g):
        if axis is None:
            return (np.broadcast_to(np.asarray(g) / count, x.shape).astype(x.data.dtype, copy=False),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis=axis)
        return (np.broadcast_to(gg / count, x.shape).astype(x.data.dtype, copy=False),)

    return _make_node("mean", y, (x,), backward)


def finite_diff_check(f, params, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f(params) -> scalar Tensor` must be deterministic (dropout off); this is
    verified by evaluating it twice before differencing.
    """
    if epsilon <= 0:
        raise ContractViolation("epsilon must be positive")
    params = list(params)
    v1 = f(params).data.copy()
    v2 = f(params).data.copy()
    if not np.array_equal(v1, v2):
        raise ContractViolation("f is not deterministic (is dropout enabled?)")
    analytic = grad(f(params), params)
    worst = 0.0
    for p in params:
        an = analytic[p].data
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            fp = float(f(params).data)
            flat[i] = orig - epsilon
            fm = float(f(params).data)
            flat[i] = orig
            central = (fp - fm) / (2.0 * epsilon)
            err = abs(an.reshape(-1)[i] - central) / (abs(central) + 1e-12)
            worst = max(worst, err)
    return worst


def empirical_ratios(schedule: BatchSchedule) -> dict[str, float]:
    """Task frequencies over the steps' primary entries."""
    primary = [step[0] for step in schedule.steps]
    if not primary:
        raise ContractViolation("schedule has no primary entries")
    counts: dict[str, int] = {}
    for e in primary:
        counts[e.task] = counts.get(e.task, 0) + 1
    return {task: c / len(primary) for task, c in counts.items()}


def check_interleaving(schedule: BatchSchedule) -> bool:
    """Linear scan of the pairing rule; True when every speech entry with a
    text equivalent is immediately followed by the matching text entry."""
    entries = schedule.entries
    i = 0
    while i < len(entries):
        e = entries[i]
        if e.interleaved:
            return False  # interleaved entry without a preceding speech draw
        if e.modality == "speech" and e.task in TEXT_EQUIVALENT:
            nxt = entries[i + 1] if i + 1 < len(entries) else None
            if (
                nxt is None
                or not nxt.interleaved
                or nxt.task != TEXT_EQUIVALENT[e.task]
                or nxt.modality != "text"
                or (nxt.language, nxt.validity) != (e.language, e.validity)
            ):
                return False
            i += 2
            continue
        i += 1
    return True


def embed(backbone: Backbone, token_ids) -> Tensor:
    """The backbone's token embeddings of `token_ids`, without positions."""
    return embedding_lookup(backbone.params["wte"], np.asarray(token_ids, dtype=np.int64))


def corpus_split(corpus: Corpus, task: str, language: str, validity: str = "valid", part: str = "train") -> list[Example]:
    return corpus.splits[(task, language, validity, part)]


def effective_question_theme(example: Example) -> int:
    """The theme of the example's question: its own unless the invalid split swapped it."""
    return example.theme_id if example.question_theme_id is None else example.question_theme_id
