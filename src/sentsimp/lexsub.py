"""Paraphrase knowledge base and complex-word substitution.

The first simplification step: greedy leftmost-longest matching of complex
phrases against a (complex, simple, score) rule table, gated by a corpus
frequency test, producing both the substituted sentence and the ordered
constraint set handed to the generator. The table is indexed by each rule's
whole complex phrase, so a position costs one lookup per candidate length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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
    """Rules indexed by their whole complex phrase."""

    def __init__(self, rules: Iterable[ParaphraseRule], rejected: Sequence[tuple[int, str]] = ()):
        self._by_complex: dict[tuple[str, ...], list[ParaphraseRule]] = {}
        count = 0
        for rule in rules:
            self._by_complex.setdefault(rule.complex, []).append(rule)
            count += 1
        for bucket in self._by_complex.values():
            if len(bucket) > 1:
                # best score first, then shorter simple side; stable, so ties keep file order
                bucket.sort(key=lambda r: (-r.score, len(r.simple), r.simple))
        self._size = count
        self.rejected = list(rejected)

    def __len__(self) -> int:
        return self._size

    def matches_at(self, tokens: Sequence[str], start: int) -> Iterator[ParaphraseRule]:
        """Every rule whose complex side equals tokens[start:...]: longest
        first, then best score, then shorter simple side."""
        for end in range(min(len(tokens), start + MAX_PHRASE_TOKENS), start, -1):
            yield from self._by_complex.get(tuple(tokens[start:end]), ())


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


def load_kb(path: str) -> KnowledgeBase:
    """Load a complex<TAB>simple<TAB>score table.

    Bad rows (wrong field count, unparsable or out-of-range score, oversize
    or identical phrases) are collected into KnowledgeBase.rejected with
    their line numbers.
    """
    rules: list[ParaphraseRule] = []
    rejected: list[tuple[int, str]] = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                try:
                    rules.append(_parse_row(line, lineno))
                except IngestionError as exc:
                    rejected.append((lineno, str(exc)))
    except OSError as exc:
        raise IngestionError(f"cannot read knowledge base: {exc}") from None
    return KnowledgeBase(rules, rejected)


class FrequencyTable:
    """Token frequencies with a complexity threshold.

    A phrase counts as complex when its least term frequency falls below
    the threshold. Unknown tokens have frequency zero and are always
    complex. `from_sequences` is where a corpus percentile becomes a
    threshold; a trained checkpoint stores the table it was trained with.
    """

    def __init__(self, counts: Mapping[str, int], threshold: float):
        self.counts = dict(counts)
        self.threshold = float(threshold)

    @classmethod
    def from_sequences(
        cls, sequences: Iterable[Sequence[str]], complexity_percentile: float = 30.0
    ) -> "FrequencyTable":
        """Count the tokens; the threshold is the given percentile of the
        counts (0.0 when there are none)."""
        counts: dict[str, int] = {}
        for seq in sequences:
            for tok in seq:
                counts[tok] = counts.get(tok, 0) + 1
        values = np.array(sorted(counts.values()), dtype=np.float64)
        return cls(counts, float(np.percentile(values, complexity_percentile)) if counts else 0.0)

    def count(self, token: str) -> int:
        return self.counts.get(token, 0)

    def phrase_count(self, phrase: Sequence[str]) -> int:
        """Least term frequency across the phrase's tokens."""
        return min(self.count(tok) for tok in phrase)


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
        rule = next(kb.matches_at(tokens, i), None)
        freq = freq_table.phrase_count(rule.complex) if rule is not None else None
        if freq is not None and freq < freq_table.threshold:
            end = i + len(rule.complex)
            matches.append((i, end, rule, freq))
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
