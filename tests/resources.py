"""Shared test resources: the step-1 resources of a hand-written
checkpoint, and a model whose biases are not all zero."""

import numpy as np

from sentsimp.corpus import Vocabulary
from sentsimp.lexsub import FrequencyTable


def step1_resources(model, tokens=(), counts=None, threshold=0.0):
    """A vocabulary of the tokens sized to the model's output layer and a
    frequency table of the counts and threshold: the two resources
    `save_checkpoint` stores next to the parameters."""
    return Vocabulary(tokens, max_size=model.config.vocab_size), FrequencyTable(counts or {}, threshold)


BIASES = ("encoder.fwd.b", "encoder.bwd.b") + tuple(
    f"{side}.{name}" for side in ("backward", "forward") for name in ("gru.b", "att_b", "init_b", "out_b")
)


def draw_biases(model, seed, scale=0.5):
    """Set every bias of the model (`encoder.*.b`, and each decoder's
    `gru.b`, `att_b`, `init_b` and `out_b`) to values drawn from the seed,
    uniform in (-scale, scale), and return the model. Every bias starts at
    zero, and a zero bias that the code drops changes nothing."""
    rng = np.random.default_rng(seed)
    params = dict(model.named_parameters())
    for name in BIASES:
        params[name].data[...] = rng.uniform(-scale, scale, size=params[name].shape)
    return model
