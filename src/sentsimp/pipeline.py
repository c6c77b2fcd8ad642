"""End-to-end two-step simplification and configuration plumbing.

Step 1 substitutes complex phrases from the knowledge base; Step 2 runs the
constrained decoder over the substituted sentence, one pass per surviving
constraint. Configuration files are flat `key = value` text with `#`
comments (a `#` at the start of a line or after whitespace); the effective
configuration is echoed next to training outputs so runs are reproducible
from their artifacts.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass

from .corpus import UNK_ID, Vocabulary, detokenize, tokenize
from .decoding import decode_multi
from .errors import ConfigError, ConstraintError, ContractError, IngestionError
from .lexsub import ConstraintSet, FrequencyTable, KnowledgeBase, identify_and_substitute, load_kb
from .model import ModelConfig, Seq2SeqModel, load_checkpoint


@dataclass(frozen=True)
class PipelineConfig:
    # paths
    source: str = ""
    target: str = ""
    kb: str = ""
    checkpoint: str = ""
    out_dir: str = ""
    # model (desk-scale defaults; the full-scale constants live in
    # configs/full_scale.cfg)
    vocab_size: int = 2000
    embed_dim: int = 64
    hidden_dim: int = 128
    # training
    epochs: int = 10
    batch_size: int = 16
    rho: float = 0.95
    eps: float = 1e-6
    clip_norm: float = 5.0
    checkpoint_every: int = 1
    valid_size: int = 0
    # decoding / step 1; the step-1 threshold comes from the checkpoint, so
    # complexity_percentile is read by training only, and training reads
    # neither beam nor max_decode_len
    beam: int = 5
    max_decode_len: int = 100
    max_constraints: int = 3
    complexity_percentile: float = 30.0
    seed: int = 13

    def __post_init__(self):
        for name, check in RANGE_CHECKS.items():
            value = getattr(self, name)
            if not check(value):
                raise ContractError(f"{name} has out-of-range value {value}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=self.vocab_size,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
        )


_PATH_FIELDS = ("source", "target", "kb", "checkpoint", "out_dir")

# the one owner of every range rule: PipelineConfig raises ContractError on a
# value outside it, and parse_config and the CLI flags raise ConfigError first,
# naming the line or the flag
RANGE_CHECKS = {
    "vocab_size": lambda v: v > 4,
    "embed_dim": lambda v: v >= 1,
    "hidden_dim": lambda v: v >= 1,
    "beam": lambda v: v >= 1,
    "max_decode_len": lambda v: v >= 2,
    "epochs": lambda v: v >= 1,
    "batch_size": lambda v: v >= 1,
    "rho": lambda v: 0.0 < v < 1.0,
    "eps": lambda v: v > 0.0,
    "clip_norm": lambda v: v >= 0.0,
    "checkpoint_every": lambda v: v >= 1,
    "valid_size": lambda v: v >= 0,
    "max_constraints": lambda v: v >= 0,
    "complexity_percentile": lambda v: 0.0 <= v <= 100.0,
}


# a comment starts at a `#` that opens the line or follows whitespace, so a
# value such as a path may hold a `#` of its own
_COMMENT = re.compile(r"(?<!\S)#")


def _convert(key: str, raw: str, kind: type, lineno: int):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"line {lineno}: key {key!r} expects {kind.__name__}, got {raw!r}"
        ) from None


def parse_config(path: str) -> PipelineConfig:
    """Read `key = value` lines; unknown keys and bad values are rejected
    with their key name and line number, absent keys take defaults."""
    fields = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    kinds = {name: (int if t == "int" else float if t == "float" else str) for name, t in fields.items()}
    values: dict[str, object] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        value = _convert(key, raw_value, kinds[key], lineno)
        check = RANGE_CHECKS.get(key)
        if check is not None and not check(value):
            raise ConfigError(f"line {lineno}: key {key!r} has out-of-range value {raw_value}")
        values[key] = value
    return PipelineConfig(**values)


def echo_config(config: PipelineConfig, path: str) -> None:
    """Write the effective configuration; parse_config inverts this.

    A value that would read back differently (one holding a line break, a
    `#` that would start a comment, or surrounding whitespace) raises
    ConfigError naming its key, and nothing is written.
    """
    lines = []
    for f in dataclasses.fields(PipelineConfig):
        value = getattr(config, f.name)
        if f.name in _PATH_FIELDS and value == "":
            continue
        text = repr(value) if isinstance(value, float) else str(value)
        if text != text.strip() or len(text.splitlines()) > 1 or _COMMENT.search(text):
            raise ConfigError(f"cannot write key {f.name!r}: its value {text!r} would not read back")
        lines.append(f"{f.name} = {text}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


class SimplifyPipeline:
    """Loaded model plus Step-1 resources, reusable across input lines.

    config supplies the decoding settings: max_constraints for step 1, beam
    and max_decode_len for step 2. Its paths are read by from_config only.
    """

    def __init__(
        self,
        model: Seq2SeqModel,
        vocab: Vocabulary,
        kb: KnowledgeBase,
        freq_table: FrequencyTable,
        config: PipelineConfig,
    ):
        self.model = model
        self.vocab = vocab
        self.kb = kb
        self.freq_table = freq_table
        self.config = config

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "SimplifyPipeline":
        ckpt = load_checkpoint(config.checkpoint)
        kb = load_kb(config.kb) if config.kb else KnowledgeBase([])
        return cls(ckpt.model, ckpt.vocab, kb, ckpt.freq_table, config)

    def simplify(self, sentence: str) -> tuple[str, dict]:
        """One line through both steps; returns (output text, trace)."""
        tokens = tokenize(sentence)
        trace: dict = {"input": sentence, "tokens": tokens}
        if not tokens:
            trace.update({"substituted": [], "constraints": [], "passes": [], "output": ""})
            return "", trace

        constraints, substituted = identify_and_substitute(
            tokens, self.kb, self.freq_table, self.config.max_constraints
        )
        blocks = _constraint_blocks(constraints, self.vocab)
        result = decode_multi(
            self.vocab.encode(substituted),
            blocks,
            self.model,
            beam_size=self.config.beam,
            max_decode_len=self.config.max_decode_len,
        )
        output = detokenize(self.vocab.decode(result.tokens))
        trace.update(
            {
                "substituted": substituted,
                "constraints": [
                    {
                        "simple": list(c.simple),
                        "span": list(c.span),
                        "frequency": c.complex_freq,
                        "skipped": o.skipped,
                        "pass": o.pass_index,
                        "final_position": o.final_position,
                    }
                    for c, o in zip(constraints, result.outcomes)
                ],
                "passes": [
                    {
                        "constraint": self.vocab.decode(t.constraint),
                        "output": detokenize(self.vocab.decode(t.output)),
                        "position": t.position,
                        "backward_log_prob": t.backward_log_prob,
                        "forward_log_prob": t.forward_log_prob,
                        "backward_stop": t.backward_stop,
                        "forward_stop": t.forward_stop,
                    }
                    for t in result.passes
                ],
                "output": output,
            }
        )
        return output, trace


def _constraint_blocks(constraints: ConstraintSet, vocab: Vocabulary) -> list[list[int]]:
    blocks = []
    for c in constraints:
        ids = vocab.encode(c.simple)
        if UNK_ID in ids:
            missing = [tok for tok in c.simple if vocab.lookup(tok) == UNK_ID]
            raise ConstraintError(
                f"simple phrase {' '.join(c.simple)!r} is out of vocabulary: {missing}"
            )
        blocks.append(ids)
    return blocks


def ensure_out_dir(config: PipelineConfig) -> str:
    if not config.out_dir:
        raise ConfigError("out_dir is required")
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise IngestionError(f"cannot create out_dir {config.out_dir}: {exc.strerror}") from None
    return config.out_dir
