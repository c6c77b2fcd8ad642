"""Paraphrase knowledge base and complex-word substitution.

The first simplification step: greedy leftmost-longest matching of complex
phrases against a (complex, simple, score) rule table, gated by a corpus
frequency test, producing both the substituted sentence and the ordered
constraint set handed to the generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, IngestionError

MAX_PHRASE_TOKENS = 5


@dataclass(frozen=True)
class ParaphraseRule:
    complex: tuple[str, ...]
    simple: tuple[str, ...]
    score: float

    def __post_init__(self):
        if not 1 <= len(self.complex) <= MAX_PHRASE_TOKENS:
            raise ContractError(f"complex phrase must have 1..{MAX_PHRASE_TOKENS} tokens")
        if not 1 <= len(self.simple) <= MAX_PHRASE_TOKENS:
            raise ContractError(f"simple phrase must have 1..{MAX_PHRASE_TOKENS} tokens")
        if self.complex == self.simple:
            raise ContractError("complex and simple sides must differ")
        if not 0.0 <= self.score <= 1.0:
            raise ContractError(f"score must lie in [0, 1], got {self.score}")


class KnowledgeBase:
    """Rules indexed by the first token of the complex phrase."""

    def __init__(self, rules: Iterable[ParaphraseRule], rejected: Sequence[tuple[int, str]] = ()):
        self._by_head: dict[str, list[ParaphraseRule]] = {}
        count = 0
        for rule in rules:
            self._by_head.setdefault(rule.complex[0], []).append(rule)
            count += 1
        for bucket in self._by_head.values():
            # longest complex first, then best score, then shorter simple side
            bucket.sort(key=lambda r: (-len(r.complex), -r.score, len(r.simple), r.simple))
        self._size = count
        self.rejected = list(rejected)

    def __len__(self) -> int:
        return self._size

    def rules(self) -> list[ParaphraseRule]:
        return [rule for bucket in self._by_head.values() for rule in bucket]

    def match_at(self, tokens: Sequence[str], start: int) -> ParaphraseRule | None:
        """Longest-match rule whose complex side equals tokens[start:...]."""
        bucket = self._by_head.get(tokens[start])
        if not bucket:
            return None
        for rule in bucket:
            end = start + len(rule.complex)
            if end <= len(tokens) and tuple(tokens[start:end]) == rule.complex:
                return rule
        return None


def _parse_row(line: str, lineno: int) -> ParaphraseRule:
    fields = line.split("\t")
    if len(fields) != 3:
        raise IngestionError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
    complex_phrase = tuple(fields[0].split())
    simple_phrase = tuple(fields[1].split())
    try:
        score = float(fields[2])
    except ValueError:
        raise IngestionError(f"line {lineno}: score {fields[2]!r} is not a number") from None
    try:
        return ParaphraseRule(complex_phrase, simple_phrase, score)
    except ContractError as exc:
        raise IngestionError(f"line {lineno}: {exc}") from None


def load_kb(path: str, strict: bool = False) -> KnowledgeBase:
    """Load a complex<TAB>simple<TAB>score table.

    Bad rows (wrong field count, unparsable or out-of-range score, oversize
    or identical phrases) are collected into KnowledgeBase.rejected with
    their line numbers; with strict=True the first bad row raises instead.
    """
    rules: list[ParaphraseRule] = []
    rejected: list[tuple[int, str]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                try:
                    rules.append(_parse_row(line, lineno))
                except IngestionError as exc:
                    if strict:
                        raise
                    rejected.append((lineno, str(exc)))
    except OSError as exc:
        raise IngestionError(f"cannot read knowledge base: {exc}") from None
    return KnowledgeBase(rules, rejected)


class FrequencyTable:
    """Token frequencies with a percentile-based complexity threshold.

    A phrase counts as complex when its head token's frequency falls below
    the threshold. Unknown tokens have frequency zero and are always complex.
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        complexity_percentile: float = 30.0,
        threshold: float | None = None,
    ):
        self.counts = dict(counts)
        self.complexity_percentile = complexity_percentile
        if threshold is not None:
            self.threshold = float(threshold)
        elif self.counts:
            values = np.array(sorted(self.counts.values()), dtype=np.float64)
            self.threshold = float(np.percentile(values, complexity_percentile))
        else:
            self.threshold = 0.0

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[Sequence[str]], complexity_percentile: float = 30.0
    ) -> "FrequencyTable":
        counts: dict[str, int] = {}
        for seq in sequences:
            for tok in seq:
                counts[tok] = counts.get(tok, 0) + 1
        return cls(counts, complexity_percentile)

    def count(self, token: str) -> int:
        return self.counts.get(token, 0)

    def phrase_count(self, phrase: Sequence[str]) -> int:
        """Least term frequency across the phrase's tokens."""
        return min(self.count(tok) for tok in phrase)

    def is_complex(self, phrase: Sequence[str] | str) -> bool:
        if isinstance(phrase, str):
            return self.count(phrase) < self.threshold
        return self.phrase_count(phrase) < self.threshold


@dataclass(frozen=True)
class Constraint:
    """One substitution to be enforced by the generator."""

    span: tuple[int, int]  # half-open token span in the original sentence
    simple: tuple[str, ...]
    complex_freq: int
    output_span: tuple[int, int]  # where the simple phrase sits after substitution


class ConstraintSet:
    """Constraints ordered by ascending complex-term frequency."""

    def __init__(self, constraints: Sequence[Constraint]):
        items = list(constraints)
        for a, b in zip(items, items[1:]):
            if a.complex_freq > b.complex_freq:
                raise ContractError("constraints must be ordered least-frequent first")
        spans = sorted(c.span for c in items)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ContractError(f"overlapping constraint spans {(s1, e1)} and {(s2, e2)}")
        self._items = tuple(items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __eq__(self, other):
        return isinstance(other, ConstraintSet) and self._items == other._items


def identify_and_substitute(
    sentence: Sequence[str],
    kb: KnowledgeBase,
    freq_table: FrequencyTable,
    max_constraints: int,
) -> tuple[ConstraintSet, list[str]]:
    """Greedy leftmost-longest substitution of complex phrases.

    A match qualifies only when its complex phrase's least term frequency is
    under the complexity threshold. When more than max_constraints qualify,
    the lowest-frequency ones are kept; dropped matches are left
    unsubstituted. Returns the constraint set (least frequent first) and the
    new sentence.
    """
    tokens = list(sentence)
    matches: list[tuple[int, int, ParaphraseRule, int]] = []  # (start, end, rule, freq)
    i = 0
    while i < len(tokens):
        rule = kb.match_at(tokens, i)
        if rule is not None and freq_table.is_complex(rule.complex):
            end = i + len(rule.complex)
            matches.append((i, end, rule, freq_table.phrase_count(rule.complex)))
            i = end
        else:
            i += 1

    if max_constraints >= 0 and len(matches) > max_constraints:
        by_rarity = sorted(matches, key=lambda m: (m[3], m[0]))[:max_constraints]
        matches = sorted(by_rarity, key=lambda m: m[0])

    out: list[str] = []
    cursor = 0
    placed: list[tuple[tuple[int, int], ParaphraseRule, int, tuple[int, int]]] = []
    for start, end, rule, freq in matches:
        out.extend(tokens[cursor:start])
        out_start = len(out)
        out.extend(rule.simple)
        placed.append(((start, end), rule, freq, (out_start, len(out))))
        cursor = end
    out.extend(tokens[cursor:])

    ordered = sorted(placed, key=lambda m: (m[2], m[0][0]))
    constraints = ConstraintSet(
        [Constraint(span, rule.simple, freq, out_span) for span, rule, freq, out_span in ordered]
    )
    return constraints, out
