import numpy as np
import pytest

from mmadapt.decode import detect_degeneration, flag_degeneration, greedy_decode
from mmadapt.errors import ConfigError, LengthError
from mmadapt.model import Backbone, BackboneConfig
from mmadapt.prompting import PromptedExample
from mmadapt.rng import Rng
from mmadapt.tensor import Tensor

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

    def forward(self, emb, positions, lora=None):
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

    def tie_forward(emb, positions, lora=None):
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
        emb = bb.embed(np.array(ids))
        logits = bb.forward(emb, np.arange(len(ids))).data
        tok = int(np.argmax(logits[-1]))
        if tok == 1:
            break
        out.append(tok)
        ids.append(tok)
    assert decoded == out


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
