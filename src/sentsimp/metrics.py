"""Automatic simplification metrics: BLEU, iBLEU, SARI, Flesch-Kincaid.

BLEU is corpus-level and unsmoothed (identity scores exactly 100). iBLEU
combines BLEU against the reference and against the input with weight
alpha = 0.9. SARI averages add/keep/delete components over n-gram orders
1..4, with empty component sets scoring a configurable vacuous value
(1.0 by default). FK uses a deterministic vowel-group syllable heuristic.

`evaluate_corpus` makes one pass over its rows. It counts each row's input,
output and reference n-grams once, at orders 1..4, and feeds those counts
to both BLEU accumulators and to the row's SARI before moving on. `bleu` and
`sari` count their own sentences with the same helper and score them with
the same private cores, so each metric has one code path.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus import PUNCTUATION
from .errors import ContractError

Tokens = Sequence[str]

IBLEU_ALPHA = 0.9
_SENTENCE_END = {".", "!", "?"}
_VOWELS = set("aeiouy")
MAX_N = 4  # the highest n-gram order of BLEU and SARI


def _count_ngrams(tokens: Tokens, max_n: int) -> list[Counter]:
    """One sentence's n-gram counts at orders 1..max_n (item n - 1 for order
    n), each keyed in order of first occurrence; empty past its length."""
    return [Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(1, max_n + 1)]


class _BleuStats:
    """Corpus BLEU's sufficient statistics, added one row at a time: clipped
    and total candidate n-grams per order, and both corpus lengths."""

    def __init__(self, max_n: int):
        self.clipped = [0] * max_n
        self.totals = [0] * max_n
        self.cand_len = 0
        self.ref_len = 0

    def add(
        self, cand_len: int, ref_len: int, cand_counts: list[Counter], ref_counts: list[Counter]
    ) -> None:
        self.cand_len += cand_len
        self.ref_len += ref_len
        for n, (cgrams, rgrams) in enumerate(zip(cand_counts, ref_counts)):
            if not cgrams:
                break  # the candidate is shorter than this order and every higher one
            self.totals[n] += cand_len - n
            self.clipped[n] += sum(min(c, rgrams[g]) for g, c in cgrams.items() if g in rgrams)

    def score(self) -> float:
        if self.cand_len == 0:
            return 0.0
        log_sum = 0.0
        orders = 0
        for clipped, total in zip(self.clipped, self.totals):
            if total == 0:
                continue
            if clipped == 0:
                return 0.0
            orders += 1
            log_sum += math.log(clipped / total)
        if orders == 0:
            return 0.0
        cand_len, ref_len = self.cand_len, self.ref_len
        brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
        return 100.0 * brevity * math.exp(log_sum / orders)


def bleu(candidates: Sequence[Tokens], references: Sequence[Tokens], max_n: int = MAX_N) -> float:
    """Corpus BLEU in [0, 100]: geometric mean of modified n-gram precisions
    times the brevity penalty, no smoothing.

    Orders with no candidate n-grams at all (every candidate shorter than n)
    are left out of the mean so that identical corpora score 100 regardless
    of sentence length; a zero precision at any populated order yields 0.
    """
    if len(candidates) != len(references):
        raise ContractError(
            f"candidate/reference counts differ: {len(candidates)} vs {len(references)}"
        )
    if not candidates:
        raise ContractError("bleu needs a non-empty corpus")
    stats = _BleuStats(max_n)
    for cand, ref in zip(candidates, references):
        stats.add(len(cand), len(ref), _count_ngrams(cand, max_n), _count_ngrams(ref, max_n))
    return stats.score()


def ibleu_from_bleu(bleu_output_reference: float, bleu_output_input: float, alpha: float = IBLEU_ALPHA) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * bleu_output_reference - (1.0 - alpha) * bleu_output_input


def ibleu(
    outputs: Sequence[Tokens],
    references: Sequence[Tokens],
    inputs: Sequence[Tokens],
    alpha: float = IBLEU_ALPHA,
) -> float:
    """alpha * BLEU(O, R) - (1 - alpha) * BLEU(O, I)."""
    return ibleu_from_bleu(bleu(outputs, references), bleu(outputs, inputs), alpha)


def _f1(p: float, r: float) -> float:
    return 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r)


def sari(
    input_tokens: Tokens,
    output_tokens: Tokens,
    references: Sequence[Tokens],
    max_n: int = MAX_N,
    vacuous: float = 1.0,
) -> float:
    """Sentence SARI in [0, 100].

    Per order n: addition F1 (output n-grams absent from the input, judged
    against the references), keep F1 (n-grams shared by output and input,
    with counts replicated by the number of references), and deletion
    precision (input n-grams the output dropped, rewarded when references
    drop them too). Component ratios with an empty denominator take
    `vacuous`.
    """
    if not references:
        raise ContractError("sari needs at least one reference")
    ref_counts = _count_ngrams(references[0], max_n)
    for ref in references[1:]:
        for ref_all, counts in zip(ref_counts, _count_ngrams(ref, max_n)):
            ref_all.update(counts)
    in_counts, out_counts = _count_ngrams(input_tokens, max_n), _count_ngrams(output_tokens, max_n)
    return _sari(in_counts, out_counts, ref_counts, len(references), vacuous)


def _sari(
    in_counts: list[Counter],
    out_counts: list[Counter],
    ref_counts: list[Counter],
    numref: int,
    vacuous: float,
) -> float:
    """`sari` from per-order n-gram counts; `ref_counts` sums the references'."""
    total = 0.0
    for in_rep, out_rep, ref_all in zip(in_counts, out_counts, ref_counts):
        if numref > 1:
            in_rep = {g: c * numref for g, c in in_rep.items()}
            out_rep = {g: c * numref for g, c in out_rep.items()}

        # multiset intersection and difference: every count is positive, so
        # a key absent from the right operand counts zero there
        kept = {g: min(c, out_rep[g]) for g, c in in_rep.items() if g in out_rep}
        kept_good = {g: min(c, ref_all[g]) for g, c in kept.items() if g in ref_all}
        kept_all = {g: min(c, ref_all[g]) for g, c in in_rep.items() if g in ref_all}
        keep_p = (
            sum(kept_good.get(g, 0) / kept[g] for g in kept) / len(kept) if kept else vacuous
        )
        keep_r = (
            sum(kept_good.get(g, 0) / kept_all[g] for g in kept_all) / len(kept_all)
            if kept_all
            else vacuous
        )
        keep = _f1(keep_p, keep_r)

        deleted = {g: d for g, c in in_rep.items() if (d := c - out_rep.get(g, 0)) > 0}
        deleted_good = {g: d for g, c in deleted.items() if (d := c - ref_all.get(g, 0)) > 0}
        delete = (
            sum(deleted_good[g] / deleted[g] for g in deleted_good) / len(deleted)
            if deleted
            else vacuous
        )

        added = out_rep.keys() - in_rep.keys()
        added_good = added & ref_all.keys()
        added_all = ref_all.keys() - in_rep.keys()
        add_p = len(added_good) / len(added) if added else vacuous
        add_r = len(added_good) / len(added_all) if added_all else vacuous
        add = _f1(add_p, add_r)

        total += (add + keep + delete) / 3.0
    return 100.0 * total / len(in_counts)


def count_syllables(word: str) -> int:
    """Maximal vowel groups (aeiouy), minus a terminal silent 'e' unless the
    word ends in 'le', at least one."""
    groups = 0
    prev_vowel = False
    for ch in word:
        is_vowel = ch in _VOWELS
        if is_vowel and not prev_vowel:
            groups += 1
        prev_vowel = is_vowel
    if word.endswith("e") and not word.endswith("le"):
        groups -= 1
    return max(groups, 1)


def fk_counts(tokens: Tokens) -> tuple[int, int, int]:
    """(words, sentences, syllables) with punctuation tokens excluded from
    the word count and sentences split on . ! ? (at least one)."""
    words = [t for t in tokens if t not in PUNCTUATION]
    sentences = max(1, sum(1 for t in tokens if t in _SENTENCE_END))
    syllables = sum(count_syllables(w) for w in words)
    return len(words), sentences, syllables


def _fk_from_counts(words: int, sentences: int, syllables: int, no_words: str) -> float:
    """The Flesch-Kincaid grade formula; no words raises ContractError(no_words)."""
    if words == 0:
        raise ContractError(no_words)
    return 0.39 * words / sentences + 11.8 * syllables / words - 15.59


def fk_grade(tokens: Tokens) -> float:
    """Flesch-Kincaid grade level of tokenized text."""
    return _fk_from_counts(*fk_counts(tokens), "fk_grade needs at least one non-punctuation word")


@dataclass(frozen=True)
class EvalTriple:
    """Input, output, and reference token sequences for one test row."""

    input: tuple[str, ...]
    output: tuple[str, ...]
    reference: tuple[str, ...]

    def __post_init__(self):
        if not (self.input and self.output and self.reference):
            raise ContractError("evaluation rows must have non-empty I, O, and R")


@dataclass(frozen=True)
class MetricReport:
    fk: float
    bleu_output_reference: float
    bleu_output_input: float
    ibleu: float
    sari: float

    COLUMNS = ("FK", "BLEU(O, R)", "BLEU(O, I)", "iBLEU", "SARI")

    def values(self) -> tuple[float, float, float, float, float]:
        return (self.fk, self.bleu_output_reference, self.bleu_output_input, self.ibleu, self.sari)


def evaluate_corpus(triples: Sequence[EvalTriple], alpha: float = IBLEU_ALPHA) -> MetricReport:
    """All five report columns over a corpus of (I, O, R) rows.

    FK comes from summed word/sentence/syllable counts over the outputs
    (each row counts as at least one sentence); SARI is the mean of
    per-sentence scores; BLEU merges n-gram statistics corpus-wide. Each
    row's n-gram counts are made once and dropped after the row.
    """
    if not triples:
        raise ContractError("evaluate_corpus needs at least one row")
    words = sentences = syllables = 0
    or_stats, oi_stats = _BleuStats(MAX_N), _BleuStats(MAX_N)
    saris = []
    for t in triples:
        w, s, y = fk_counts(t.output)
        words, sentences, syllables = words + w, sentences + s, syllables + y
        in_counts = _count_ngrams(t.input, MAX_N)
        out_counts = _count_ngrams(t.output, MAX_N)
        ref_counts = _count_ngrams(t.reference, MAX_N)
        or_stats.add(len(t.output), len(t.reference), out_counts, ref_counts)
        oi_stats.add(len(t.output), len(t.input), out_counts, in_counts)
        saris.append(_sari(in_counts, out_counts, ref_counts, numref=1, vacuous=1.0))
    fk = _fk_from_counts(words, sentences, syllables, "outputs contain no countable words")
    bleu_or, bleu_oi = or_stats.score(), oi_stats.score()
    return MetricReport(
        fk=fk,
        bleu_output_reference=bleu_or,
        bleu_output_input=bleu_oi,
        ibleu=ibleu_from_bleu(bleu_or, bleu_oi, alpha),
        sari=sum(saris) / len(triples),
    )


def render_rows(rows: Sequence[tuple[str, MetricReport]]) -> str:
    """Aligned plain-text table, one labelled row per system."""
    headers = ("",) + MetricReport.COLUMNS
    body = [(label,) + tuple(f"{v:.2f}" for v in report.values()) for label, report in rows]
    widths = [max(len(cells[i]) for cells in [headers, *body]) for i in range(len(headers))]
    line = lambda cells: "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return "\n".join([line(headers), *(line(row) for row in body)]) + "\n"


def render_text(report: MetricReport, label: str = "system") -> str:
    """Aligned plain-text table with the five metric columns."""
    return render_rows([(label, report)])


def render_csv(report: MetricReport, label: str = "system") -> str:
    """CSV with full-precision floats (round-trips through float())."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("system",) + MetricReport.COLUMNS)
    writer.writerow((label,) + tuple(repr(v) for v in report.values()))
    return buf.getvalue()
