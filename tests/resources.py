"""Step-1 resources for tests that write a checkpoint by hand."""

from sentsimp.corpus import Vocabulary
from sentsimp.lexsub import FrequencyTable


def step1_resources(model, tokens=(), counts=None, threshold=0.0):
    """A vocabulary of the tokens sized to the model's output layer and a
    frequency table of the counts and threshold: the two resources
    `save_checkpoint` stores next to the parameters."""
    return Vocabulary(tokens, max_size=model.config.vocab_size), FrequencyTable(counts or {}, threshold)
