"""Two-step sentence simplification: lexical substitution from a paraphrase
knowledge base, then constrained seq2seq generation that guarantees the
substituted word(s) appear in the output."""

from .corpus import Vocabulary, build_vocab, detokenize, tokenize
from .decoding import decode_multi
from .lexsub import FrequencyTable, KnowledgeBase, ParaphraseRule, identify_and_substitute, load_kb
from .metrics import EvalTriple, MetricReport, bleu, evaluate_corpus, fk_grade, ibleu, sari
from .model import ModelConfig, Seq2SeqModel, load_checkpoint, save_checkpoint
from .pipeline import PipelineConfig, SimplifyPipeline, parse_config
from .training import TrainConfig, train, training_loss

__version__ = "0.1.0"

__all__ = [
    "EvalTriple",
    "FrequencyTable",
    "KnowledgeBase",
    "MetricReport",
    "ModelConfig",
    "ParaphraseRule",
    "PipelineConfig",
    "Seq2SeqModel",
    "SimplifyPipeline",
    "TrainConfig",
    "Vocabulary",
    "bleu",
    "build_vocab",
    "decode_multi",
    "detokenize",
    "evaluate_corpus",
    "fk_grade",
    "ibleu",
    "identify_and_substitute",
    "load_checkpoint",
    "load_kb",
    "parse_config",
    "sari",
    "save_checkpoint",
    "tokenize",
    "train",
    "training_loss",
]
