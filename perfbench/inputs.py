"""Seeded inputs shared by every benchmark workload.

Sentences are joins of toy clauses from ``sentsimp.toydata``. A clause is
either *complex* (the toy pair's normal side, which holds one paraphrase
rule's complex side) or *plain* (the toy pair's simple side on both sides,
which holds no complex side). The number of clauses and of complex clauses
follows a fixed cycle of shapes, and the clause lengths a fixed cycle of
length classes, so line i has the same length and the same number of
complex phrases under every seed; the seed picks the words. That keeps a
run's cost steady across seeds.
"""

from __future__ import annotations

import functools
import random
import statistics
from collections import Counter
from dataclasses import dataclass

from sentsimp.corpus import tokenize
from sentsimp.toydata import PHRASE_RULES, WORD_RULES, build_toy_corpus

# build_toy_corpus never returns for more than about 400 pairs (one template
# runs out of distinct fillings), so the clause pool stays well below that.
CLAUSE_POOL = 300

CONNECTORS = (",", "and", "while", "so", "because")

# (clauses, complex clauses) per line, cycled: 5 to 39 tokens, and
# lines with 0, 1, 2 and 3 or more complex phrases.
SHAPES = (
    (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
    (4, 2), (4, 4), (5, 3), (5, 4), (6, 3), (3, 0), (4, 1), (2, 1),
)


@dataclass(frozen=True)
class Line:
    normal: str
    simple: str
    complex_clauses: int


@functools.lru_cache(maxsize=4)
def clause_pool(seed: int) -> tuple[tuple[tuple[str, str], ...], ...]:
    """(normal, simple) toy clauses without the final full stop, grouped by
    length class: (normal tokens, simple tokens), in ascending order.

    Pair 0 of the toy corpus, the showcase sentence, holds three rules and
    is left out so that each complex clause adds exactly one rule.
    """
    data = build_toy_corpus(CLAUSE_POOL, seed=seed)
    classes: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for n, s in data.pairs[1:]:
        n, s = n.removesuffix(" ."), s.removesuffix(" .")
        classes.setdefault((len(tokenize(n)), len(tokenize(s))), []).append((n, s))
    return tuple(tuple(classes[k]) for k in sorted(classes))


def make_lines(seed: int, stream: str, count: int) -> list[Line]:
    """`count` lines cycling through SHAPES; `stream` names an independent
    random stream so that, say, training and held-out lines differ."""
    pool = clause_pool(seed)
    rng = random.Random(f"{seed}:{stream}")
    lines = []
    slot = 0
    for i in range(count):
        n_clauses, n_complex = SHAPES[i % len(SHAPES)]
        picked = []
        for _ in range(n_clauses):
            length_class = pool[slot % len(pool)]
            picked.append(length_class[rng.randrange(len(length_class))])
            slot += 1
        complex_at = {(i + k) % n_clauses for k in range(n_complex)}
        normal, simple = [], []
        for j, (clause_n, clause_s) in enumerate(picked):
            if j:
                joint = CONNECTORS[rng.randrange(len(CONNECTORS))]
                normal.append(joint)
                simple.append(joint)
            normal.append(clause_n if j in complex_at else clause_s)
            simple.append(clause_s)
        lines.append(Line(" ".join(normal) + " .", " ".join(simple) + " .", n_complex))
    return lines


def toy_kb_rows() -> list[tuple[str, str, float]]:
    return list(WORD_RULES) + list(PHRASE_RULES)


def large_kb_rows(seed: int, lines: list[Line], n_rules: int) -> list[tuple[str, str, float]]:
    """The toy rules plus `n_rules` generated ones that never fire on `lines`.

    Generated complex sides start with every vocabulary token in turn, so
    each head bucket that lexical substitution scans holds about
    n_rules / len(vocabulary) rules. They go on with 1 to 4 vocabulary
    tokens in an order the lines never hold, so every one of them is tried
    and fails, and only the toy rules substitute: the number of
    substitutions per line is then set by the line's shape, not the seed.
    """
    rng = random.Random(f"{seed}:kb")
    vocabulary = vocabulary_of(lines)
    present = set()
    for line in lines:
        tokens = tokenize(line.normal)
        for n in range(2, 6):
            present.update(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    rows = toy_kb_rows()
    for i in range(n_rules):
        complex_side = (vocabulary[i % len(vocabulary)],)
        while complex_side in present or len(complex_side) == 1:
            tail = tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 4)))
            complex_side = complex_side[:1] + tail
        simple_side = tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 2)))
        if simple_side == complex_side:
            simple_side += (rng.choice(vocabulary),)
        rows.append((" ".join(complex_side), " ".join(simple_side), round(rng.random(), 3)))
    return rows


def vocabulary_of(lines: list[Line]) -> list[str]:
    return sorted({tok for line in lines for tok in tokenize(line.normal) + tokenize(line.simple)})


def describe(lines: list[Line]) -> dict:
    """Length distribution (normal side, in tokens) and the share of lines
    with 0, 1, 2 and 3 or more complex phrases."""
    lengths = sorted(len(tokenize(line.normal)) for line in lines)
    shares = Counter(min(line.complex_clauses, 3) for line in lines)
    return {
        "lines": len(lines),
        "tokens_min": lengths[0],
        "tokens_median": statistics.median(lengths),
        "tokens_mean": round(statistics.fmean(lengths), 2),
        "tokens_max": lengths[-1],
        "complex_share": {
            ("3+" if k == 3 else str(k)): round(shares[k] / len(lines), 4) for k in range(4)
        },
    }


def write_lines(path: str, texts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(text + "\n" for text in texts)


def write_kb(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{c}\t{s}\t{score}\n" for c, s, score in rows)
