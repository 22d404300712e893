import numpy as np
import pytest

from mmadapt.decode import detect_degeneration, flag_degeneration, greedy_decode
from mmadapt.errors import ConfigError, ContractViolation, LengthError
from mmadapt.model import (
    LORA_SITES,
    Backbone,
    BackboneConfig,
    KVCache,
    LoraAdapters,
    LoraConfig,
    ProjectorConfig,
    SpeechProjector,
    fold_adapters,
    splice_prompt,
)
from mmadapt.prompting import PromptedExample
from mmadapt.rng import Rng
from mmadapt.tensor import Tensor, concat, no_grad
from mmadapt.vocab import EOS

from references import embed

CFG = BackboneConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2, d_ffn=24, max_seq_len=48)


def _prompt(prefix=(1,), content=(2, 3), suffix=(4,), targets=()):
    return PromptedExample(
        id="p0",
        task="ASR",
        language="src",
        validity="valid",
        modality="text",
        prefix_tokens=tuple(prefix),
        content_tokens=tuple(content),
        suffix_tokens=tuple(suffix),
        target_tokens=tuple(targets),
    )


class _RiggedBackbone(Backbone):
    """Backbone whose logits always rank a fixed token first."""

    def __init__(self, cfg, favorite):
        super().__init__(cfg, Rng(0), dtype=np.float64)
        self.favorite = favorite

    def forward(self, emb, positions, lora=None, cache=None):
        L = emb.shape[-2]
        logits = np.zeros((L, self.cfg.vocab_size))
        logits[:, self.favorite] = 10.0
        return Tensor(logits)


def test_constant_argmax_fills_to_cap():
    bb = _RiggedBackbone(CFG, favorite=7)
    out = greedy_decode(bb, _prompt(), max_new_tokens=5)
    assert out == [7, 7, 7, 7, 7]


def test_immediate_stop_gives_empty_answer():
    bb = _RiggedBackbone(CFG, favorite=1)  # end-of-answer token
    out = greedy_decode(bb, _prompt(), max_new_tokens=5)
    assert out == []


def test_ties_break_to_lowest_token_id():
    bb = _RiggedBackbone(CFG, favorite=5)

    def tie_forward(emb, positions, lora=None, cache=None):
        L = emb.shape[-2]
        logits = np.zeros((L, CFG.vocab_size))
        logits[:, 5] = 3.0
        logits[:, 9] = 3.0
        return Tensor(logits)

    bb.forward = tie_forward
    out = greedy_decode(bb, _prompt(), max_new_tokens=1)
    assert out == [5]


def test_matches_per_step_argmax_oracle():
    bb = Backbone(CFG, Rng(3), dtype=np.float64)
    prompt = _prompt(prefix=(1,), content=(2, 3, 4), suffix=(5,))
    decoded = greedy_decode(bb, prompt, max_new_tokens=6)

    # oracle: replay the loop on raw ids with full logit dumps
    ids = [1, 2, 3, 4, 5]
    out = []
    for _ in range(6):
        emb = embed(bb, np.array(ids))
        logits = bb.forward(emb, np.arange(len(ids))).data
        tok = int(np.argmax(logits[-1]))
        if tok == 1:
            break
        out.append(tok)
        ids.append(tok)
    assert decoded == out


# --- the cached, folded decode against its definition ------------------------

DEEP = BackboneConfig(vocab_size=12, d_model=16, n_layers=2, n_heads=2, d_ffn=24, max_seq_len=48)
SPEECH = ProjectorConfig(n_layers=1, n_heads=2, d_in=8, d_ffn=16, d_out=16)


def _adapted_models(seed: int):
    """A float64 backbone with weights large enough for non-uniform attention,
    and adapters on every site with non-zero B."""
    rng = Rng(seed)
    bb = Backbone(DEEP, rng.split("backbone"), dtype=np.float64)
    for name, t in bb.params.items():
        if not name.endswith((".g", ".b")):
            t.data = rng.split("w", name).normal(size=t.shape) * 0.5
    adapters = LoraAdapters(DEEP, LoraConfig(rank=2, alpha=4.0, targets=LORA_SITES), rng.split("lora"), dtype=np.float64)
    for name, t in adapters.params.items():
        _, layer, site, part = name.split(".")
        if part == "B":
            t.data = rng.split("B", layer, site).normal(size=t.shape) * 0.3
    projector = SpeechProjector(SPEECH, rng.split("projector"), dtype=np.float64)
    return bb, adapters, projector


def _full_recompute_decode(bb, prompt, max_new_tokens, projector=None, adapters=None):
    """Greedy decoding by definition: run the full model, with no cache, over
    the whole prefix for every new token and take the argmax of the last row."""
    with no_grad():
        speech = None if prompt.frames is None else projector.forward(Tensor(prompt.frames), train=False)
        content = list(prompt.content_tokens or ())
        sp = splice_prompt(bb.params["wte"], list(prompt.prefix_tokens) + content, speech,
                           list(prompt.suffix_tokens), [], bb.cfg.max_seq_len)
        emb, out = sp.embeddings, []
        for _ in range(max_new_tokens):
            tok = int(np.argmax(bb.forward(emb, np.arange(emb.shape[0]), lora=adapters).data[-1]))
            if tok == EOS:
                break
            out.append(tok)
            emb = concat([emb, embed(bb, [tok])], axis=0)
    return out


def test_cached_folded_decode_matches_full_recompute_oracle():
    bb, adapters, _ = _adapted_models(30)
    rng = Rng(31)
    lengths = []
    for i in range(24):
        content = tuple(int(t) for t in rng.split("c", str(i)).integers(2, DEEP.vocab_size, size=int(rng.integers(1, 8))))
        prompt = _prompt(prefix=(2,), content=content, suffix=(3,))
        want = _full_recompute_decode(bb, prompt, 12, adapters=adapters)
        assert greedy_decode(bb, prompt, 12, adapters=adapters) == want
        lengths.append(len(want))
    assert max(lengths) >= 6  # the oracle decodes past several cache steps


def test_cached_folded_decode_matches_oracle_on_speech_prompts():
    bb, adapters, projector = _adapted_models(32)
    lengths = []
    for i in range(8):
        frames = Rng(33).split(str(i)).normal(size=(3 + i, SPEECH.d_in))
        prompt = PromptedExample(id=f"s{i}", task="ST", language="tgt1", validity="valid", modality="speech",
                                 prefix_tokens=(2, 4), frames=frames, suffix_tokens=(5,), target_tokens=())
        want = _full_recompute_decode(bb, prompt, 10, projector=projector, adapters=adapters)
        assert greedy_decode(bb, prompt, 10, projector=projector, adapters=adapters) == want
        lengths.append(len(want))
    assert max(lengths) >= 4


def test_cached_logits_equal_the_full_forward():
    bb, adapters, _ = _adapted_models(34)
    ids = Rng(35).integers(0, DEEP.vocab_size, size=20)
    with no_grad():
        cache = KVCache(fold_adapters(bb.params, adapters))
        fed = 0
        for rows in (6, 3, 1, 1, 4, 1, 1, 1, 1, 1):  # a prefill, then chunks and single rows
            got = bb.forward(embed(bb, ids[fed : fed + rows]), np.arange(fed, fed + rows), cache=cache).data
            fed += rows
            want = bb.forward(embed(bb, ids[:fed]), np.arange(fed), lora=adapters).data[-rows:]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        assert cache.length == fed == 20
        with pytest.raises(LengthError):  # the cached rows count toward max_seq_len
            bb.forward(embed(bb, np.zeros(29, dtype=int)), np.arange(20, 49), cache=cache)


def test_cache_rejects_lora_passed_again():
    # A cache already holds folded weights; folding the adapters in again
    # would apply them twice.
    bb, adapters, _ = _adapted_models(38)
    cache = KVCache(fold_adapters(bb.params, adapters))
    with pytest.raises(ContractViolation):
        bb.forward(embed(bb, [2, 3]), np.arange(2), lora=adapters, cache=cache)
    assert cache.length == 0


def test_decode_leaves_backbone_and_adapters_untouched():
    bb, adapters, _ = _adapted_models(36)
    state = {k: (v, v.data.copy()) for k, v in {**bb.params, **adapters.params}.items()}
    attrs = (set(vars(bb)), set(vars(adapters)))
    greedy_decode(bb, _prompt(content=(2, 6, 7)), 8, adapters=adapters)
    assert (set(vars(bb)), set(vars(adapters))) == attrs
    for k, (t, before) in state.items():
        assert ({**bb.params, **adapters.params}[k] is t) and np.array_equal(t.data, before)


def test_decode_is_deterministic():
    bb = Backbone(CFG, Rng(4), dtype=np.float64)
    prompt = _prompt(content=(2, 9, 3))
    assert greedy_decode(bb, prompt, max_new_tokens=8) == greedy_decode(bb, prompt, max_new_tokens=8)


def test_output_capped_at_max_new_tokens():
    bb = _RiggedBackbone(CFG, favorite=6)
    for cap in (1, 3, 9):
        assert len(greedy_decode(bb, _prompt(), max_new_tokens=cap)) <= cap


def test_context_overflow_rejected():
    bb = Backbone(CFG, Rng(5))
    with pytest.raises(LengthError):
        greedy_decode(bb, _prompt(content=tuple([2] * 40)), max_new_tokens=10)


def test_speech_prompt_without_projector_is_a_config_error():
    speech = PromptedExample(id="s0", task="ASR", language="src", validity="valid", modality="speech",
                             prefix_tokens=(1,), frames=np.zeros((3, 8)), suffix_tokens=(4,), target_tokens=())
    with pytest.raises(ConfigError):
        greedy_decode(Backbone(CFG, Rng(6)), speech, max_new_tokens=2)


def test_degeneration_hand_cases():
    assert detect_degeneration([8, 8, 8, 8], n=1, min_repeats=4) == (True, (0, 4))
    flagged, span = detect_degeneration(list(range(20)), n=1, min_repeats=4)
    assert not flagged and span is None


def test_degeneration_reports_first_span():
    tokens = [1, 2, 5, 5, 5, 5, 5, 9]
    flagged, span = detect_degeneration(tokens, n=1, min_repeats=4)
    assert flagged and span == (2, 7)  # covers the whole run


def test_degeneration_bigram_case():
    tokens = [3, 7, 3, 7, 3, 7, 3, 7, 1]
    assert detect_degeneration(tokens, n=2, min_repeats=4)[0]
    assert not detect_degeneration(tokens, n=2, min_repeats=5)[0]


@pytest.mark.parametrize("n,min_repeats", [(0, 4), (2, 1)])
def test_degeneration_rejects_an_empty_gram_or_a_single_repeat(n, min_repeats):
    with pytest.raises(ContractViolation):
        detect_degeneration([8, 8, 8, 8], n, min_repeats)


def _brute_force_repeat(tokens, n, min_repeats):
    for i in range(len(tokens)):
        gram = tokens[i : i + n]
        if len(gram) < n:
            break
        if tokens[i : i + n * min_repeats] == gram * min_repeats:
            return True
    return False


def test_degeneration_agrees_with_brute_force_oracle():
    rng = Rng(11)
    for trial in range(300):
        length = int(rng.integers(1, 24))
        tokens = list(rng.integers(0, 4, size=length))
        n = int(rng.integers(1, 4))
        reps = int(rng.integers(2, 5))
        assert detect_degeneration(tokens, n, reps)[0] == _brute_force_repeat(tokens, n, reps)


def test_flag_degeneration_over_orders():
    clean = [1, 2, 3, 4, 5, 6, 7, 8]
    assert flag_degeneration(clean)[0] is False
    assert flag_degeneration([1, 2] * 8)[0] is True
    assert flag_degeneration([4, 5, 6] * 4 + [1])[0] is True
    # Up to 4-grams, each repeated at least 4 times in a row.
    assert flag_degeneration([9, 1, 2, 3] * 4) == (True, (0, 16))
    assert flag_degeneration([1, 2, 3, 4, 5] * 4)[0] is False
    assert flag_degeneration([7] * 3)[0] is False
