"""Desk-scale multimodal adapter training on a frozen toy decoder LM.

Submodules
----------
tensor      dense arrays with reverse-mode gradients over the ops defined there
rng         deterministic label-splittable random streams
vocab       token layout and toy languages
corpus      synthetic speech/text corpus generation and preprocessing
prompting   prompt templates and rendering
model       one transformer stack (backbone, speech projector), adapters, one index-grid splice
checkpoint  versioned binary parameter bundles
sampler     two-level interleaved batch scheduling
trainer     AdamW, one runner for every training stage
decode      greedy decoding and degeneration detection
metrics     WER, smoothed BLEU-4, QA accuracy, language confusion over token ids
"""

__version__ = "0.1.0"
