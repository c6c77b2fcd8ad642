#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on the synthetic corpus.

Trains the constrained generator until it memorizes the toy pairs, then
scores four systems against the simple references: a copy baseline, lexical
substitution alone, single-constraint generation, and multi-constraint
generation. Prints the five-column metric table. Takes a minute or two at
the default settings on one core.
"""

import argparse
import time
from dataclasses import replace

from sentsimp.corpus import CorpusSplit, SentencePair, build_vocab, detokenize, tokenize
from sentsimp.lexsub import FrequencyTable, KnowledgeBase, ParaphraseRule, identify_and_substitute
from sentsimp.metrics import EvalTriple, evaluate_corpus, render_rows
from sentsimp.model import ModelConfig, Seq2SeqModel
from sentsimp.pipeline import PipelineConfig, SimplifyPipeline
from sentsimp.toydata import build_toy_corpus, toy_token_pairs
from sentsimp.training import train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=50)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--beam", type=int, default=5)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()

    data = build_toy_corpus(args.pairs, seed=17)
    token_pairs = toy_token_pairs(data)
    vocab = build_vocab((s + t for s, t in token_pairs), max_size=400)
    pairs = [SentencePair(tuple(vocab.encode(s)), tuple(vocab.encode(t))) for s, t in token_pairs]
    kb = KnowledgeBase(
        [ParaphraseRule(tuple(c.split()), tuple(s.split()), sc) for c, s, sc in data.kb_rows]
    )
    freq_table = FrequencyTable.from_sequences(s for s, _ in token_pairs)

    model = Seq2SeqModel.create(
        ModelConfig(vocab_size=len(vocab), embed_dim=args.embed_dim, hidden_dim=args.hidden_dim),
        seed=1,
    )
    config = PipelineConfig(epochs=args.epochs, batch_size=8, seed=args.seed, beam=args.beam, max_decode_len=30)
    started = time.monotonic()
    result = train(CorpusSplit(train=pairs), model, config, vocab, kb=kb, freq_table=freq_table)
    print(
        f"trained {args.epochs} epochs in {time.monotonic() - started:.0f}s, "
        f"final per-token loss {result.history[-1].train_loss:.4f}\n"
    )

    lexsub_high_recall = FrequencyTable(freq_table.counts, threshold=float("inf"))

    def rows_for(system):
        rows = []
        for (src_tokens, ref_tokens) in token_pairs:
            rows.append(EvalTriple(tuple(src_tokens), tuple(system(src_tokens)), tuple(ref_tokens)))
        return evaluate_corpus(rows)

    single = SimplifyPipeline(model, vocab, kb, lexsub_high_recall, replace(config, max_constraints=1))
    multi = SimplifyPipeline(model, vocab, kb, lexsub_high_recall, replace(config, max_constraints=3))

    def substitute_only(tokens):
        _, out = identify_and_substitute(tokens, kb, lexsub_high_recall, max_constraints=5)
        return out

    systems = [
        ("copy input", lambda tokens: tokens),
        ("lexical substitution", substitute_only),
        ("constrained seq2seq", lambda tokens: tokenize(single.simplify(detokenize(tokens))[0])),
        ("multi-constrained", lambda tokens: tokenize(multi.simplify(detokenize(tokens))[0])),
    ]
    table = [(label, rows_for(fn)) for label, fn in systems]
    print(render_rows(table))


if __name__ == "__main__":
    main()
