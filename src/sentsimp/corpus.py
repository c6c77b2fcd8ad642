"""Tokenization, vocabulary, and parallel-corpus ingestion.

Every text file of the package is read through `read_lines`, so one line
rule holds for all of them (see `split_lines`). Text is lowercased and
punctuation marks are detached into separate tokens before whitespace
splitting. Vocabularies reserve ids 0..3 for the padding, sentence-start,
sentence-end, and unknown tokens; out-of-vocabulary tokens map to "unk".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ContractError, IngestionError

PAD_ID, BOS_ID, EOS_ID, UNK_ID = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<s>", "</s>", "unk"
SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)
NUM_SPECIALS = 4

PUNCTUATION = frozenset({".", ",", ";", ":", "!", "?", '"', "'", "(", ")"})


def split_lines(text: str) -> list[str]:
    """The lines of `text`, each ended by "\n", "\r\n" or "\r" (the last
    line may have no end). Unlike str.splitlines, a vertical tab, a form
    feed, U+001C-U+001E, U+0085, U+2028 and U+2029 stay inside their line."""
    if "\r" in text:  # a scan is cheaper than two replaces on a file that has none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_lines(path: str) -> list[str]:
    """`split_lines` of a UTF-8 file, a leading byte-order mark dropped;
    OSError propagates."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return split_lines(fh.read())


def tokenize(text: str) -> list[str]:
    """Lowercase, detach punctuation marks, split on whitespace.

    One str.replace per mark that occurs: the spaces it puts around a mark
    are no mark, so the order of the replaces does not change the tokens.
    """
    text = text.lower()
    for mark in PUNCTUATION:
        if mark in text:
            text = text.replace(mark, f" {mark} ")
    return text.split()


def detokenize(tokens: Sequence[str]) -> str:
    """Cosmetic inverse of tokenize: punctuation reattaches to the left."""
    out: list[str] = []
    for tok in tokens:
        if out and tok in PUNCTUATION:
            out[-1] += tok
        else:
            out.append(tok)
    return " ".join(out)


class Vocabulary:
    """Bidirectional token/id mapping with four reserved specials."""

    def __init__(self, tokens: Sequence[str], max_size: int):
        if max_size <= NUM_SPECIALS:
            raise ContractError(f"max_size must exceed {NUM_SPECIALS}, got {max_size}")
        kept = list(tokens)
        if len(kept) > max_size - NUM_SPECIALS:
            raise ContractError(
                f"{len(kept)} tokens do not fit a vocabulary of max_size {max_size}"
            )
        for special in SPECIAL_TOKENS:
            if special in kept:
                raise ContractError(f"reserved token {special!r} cannot be a vocabulary entry")
        self.max_size = max_size
        self._id_to_token = list(SPECIAL_TOKENS) + kept
        self._token_to_id = {tok: i for i, tok in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ContractError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def lookup(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def render(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise ContractError(f"token id {token_id} out of range for size {len(self)}")
        return self._id_to_token[token_id]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.lookup(t) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.render(i) for i in ids]

    def kept_tokens(self) -> list[str]:
        return self._id_to_token[NUM_SPECIALS:]


def build_vocab(corpus: Iterable[Sequence[str]], max_size: int) -> Vocabulary:
    """Keep the (max_size - 4) most frequent tokens; ties break lexicographically."""
    if max_size <= NUM_SPECIALS:
        raise ContractError(f"max_size must exceed {NUM_SPECIALS}, got {max_size}")
    counts: dict[str, int] = {}
    for seq in corpus:
        for tok in seq:
            if tok in SPECIAL_TOKENS:
                continue
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocabulary(ordered[: max_size - NUM_SPECIALS], max_size)


@dataclass(frozen=True)
class SentencePair:
    """An id-mapped (normal, simple) sentence pair."""

    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        if not self.source or not self.target:
            raise ContractError("sentence pairs must have non-empty source and target")


@dataclass
class CorpusSplit:
    train: list[SentencePair] = field(default_factory=list)
    validation: list[SentencePair] = field(default_factory=list)


def read_parallel_tokens(
    source_path: str, target_path: str | None = None
) -> tuple[list[tuple[list[str], list[str]]], list[tuple[int, str]]]:
    """Aligned token pairs from two one-sentence-per-line files or one TSV.

    Blank or unsplittable lines reject the pair and are reported with their
    line number; unequal line counts raise.
    """
    try:
        if target_path is None:
            rows = []
            for line in read_lines(source_path):
                parts = line.split("\t")
                rows.append((parts[0], parts[1]) if len(parts) == 2 else None)
        else:
            src_lines, tgt_lines = read_lines(source_path), read_lines(target_path)
            if len(src_lines) != len(tgt_lines):
                raise IngestionError(
                    f"line counts differ: {len(src_lines)} source lines vs {len(tgt_lines)} target lines"
                )
            rows = list(zip(src_lines, tgt_lines))
    except OSError as exc:
        raise IngestionError(f"cannot read corpus: {exc}") from None

    pairs: list[tuple[list[str], list[str]]] = []
    skipped: list[tuple[int, str]] = []
    for lineno, row in enumerate(rows, start=1):
        if row is None:
            skipped.append((lineno, "expected two tab-separated fields"))
            continue
        src, tgt = tokenize(row[0]), tokenize(row[1])
        if not src or not tgt:
            skipped.append((lineno, "blank sentence"))
            continue
        pairs.append((src, tgt))
    return pairs, skipped


def find_block(haystack: Sequence, block: Sequence) -> int | None:
    """1-based start of the first contiguous occurrence of block, else None."""
    block = tuple(block)
    for i in range(len(haystack) - len(block) + 1):
        if tuple(haystack[i : i + len(block)]) == block:
            return i + 1
    return None


def split_corpus(pairs: Sequence[SentencePair], valid_size: int, seed: int) -> CorpusSplit:
    """Seeded random split into disjoint train/validation lists."""
    if not 0 <= valid_size <= len(pairs):
        raise ContractError(f"cannot hold out {valid_size} pairs from {len(pairs)}")
    order = list(range(len(pairs)))
    random.Random(seed).shuffle(order)
    return CorpusSplit(
        train=[pairs[i] for i in sorted(order[valid_size:])],
        validation=[pairs[i] for i in sorted(order[:valid_size])],
    )
