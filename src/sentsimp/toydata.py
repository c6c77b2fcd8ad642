"""Deterministic synthetic corpus for desk-scale experiments and tests.

Fifty-ish (normal, simple) sentence pairs built from templates over a small
vocabulary, each exercising a paraphrase rule, plus the matching rule table.
The first pair mirrors the multi-substitution case-study shape: a phrase
rule and two word rules in one sentence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import tokenize
from .errors import ContractError

WORD_RULES = [
    ("key", "important", 0.9),
    ("hub", "center", 0.9),
    ("vast", "big", 0.85),
    ("rapid", "fast", 0.85),
    ("ancient", "old", 0.8),
    ("enormous", "huge", 0.8),
    ("costly", "expensive", 0.75),
    ("assist", "help", 0.9),
]

PHRASE_RULES = [
    ("a great deal of", "many", 0.8),
]

NOUNS = ["town", "road", "river", "school", "bridge", "market", "castle", "garden", "station", "harbor"]
NAMES = ["parkes", "dukas", "milan", "oslo", "quito"]

SHOWCASE_PAIR = (
    "parkes became a key hub for a great deal of passenger transport .",
    "parkes became an important center for many passenger transport .",
)

_TEMPLATES = [
    ("the {noun} is {complex} .", "the {noun} is {simple} ."),
    ("{name} became a {complex} {noun} .", "{name} became a {simple} {noun} ."),
    ("the {complex} {noun} fell .", "the {simple} {noun} fell ."),
    ("{name} saw a {complex} {noun} .", "{name} saw a {simple} {noun} ."),
    ("a great deal of {noun} traffic crossed the {noun2} .", "many {noun} traffic crossed the {noun2} ."),
]


# pair i > 0 uses template i % 5; template 2 runs out first, its 80 unique
# fills (8 complex words x 10 nouns) covering pairs 2, 7, ..., 397
MAX_PAIRS = 402


@dataclass
class ToyData:
    pairs: list[tuple[str, str]]  # (normal, simple) raw sentences
    kb_rows: list[tuple[str, str, float]]

    def kb_tsv(self) -> str:
        return "".join(f"{c}\t{s}\t{score}\n" for c, s, score in self.kb_rows)

    def write(self, source_path: str, target_path: str, kb_path: str) -> None:
        with open(source_path, "w", encoding="utf-8") as fh:
            fh.writelines(normal + "\n" for normal, _ in self.pairs)
        with open(target_path, "w", encoding="utf-8") as fh:
            fh.writelines(simple + "\n" for _, simple in self.pairs)
        with open(kb_path, "w", encoding="utf-8") as fh:
            fh.write(self.kb_tsv())


def build_toy_corpus(n_pairs: int = 50, seed: int = 17) -> ToyData:
    """n_pairs unique sentence pairs; pair 0 is the showcase sentence."""
    if n_pairs > MAX_PAIRS:
        raise ContractError(f"the templates hold at most {MAX_PAIRS} unique pairs, asked for {n_pairs}")
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = [SHOWCASE_PAIR]
    seen = {SHOWCASE_PAIR[0]}
    word_rules = list(WORD_RULES)
    while len(pairs) < n_pairs:
        template_n, template_s = _TEMPLATES[len(pairs) % len(_TEMPLATES)]
        complex_word, simple_word, _ = word_rules[rng.randrange(len(word_rules))]
        fills = {
            "noun": NOUNS[rng.randrange(len(NOUNS))],
            "noun2": NOUNS[rng.randrange(len(NOUNS))],
            "name": NAMES[rng.randrange(len(NAMES))],
            "complex": complex_word,
            "simple": simple_word,
        }
        normal = template_n.format(**fills)
        if normal in seen:
            continue
        seen.add(normal)
        pairs.append((normal, template_s.format(**fills)))
    return ToyData(pairs=pairs, kb_rows=WORD_RULES + PHRASE_RULES)


def toy_token_pairs(data: ToyData) -> list[tuple[list[str], list[str]]]:
    return [(tokenize(n), tokenize(s)) for n, s in data.pairs]
