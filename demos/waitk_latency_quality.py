"""
Latency-quality trade-off of wait-k decoding
============================================

Trains a small causal-encoder translation model with multi-path sampling
(each update optimizes a randomly drawn lagging k), then decodes one
held-out set at several evaluation laggings.  The toy task swaps
adjacent source tokens, so the very first target token depends on a
source token a k=1 reader has not yet seen: quality collapses at k=1
and recovers the moment one token of lookahead is allowed, while the
measured lagging keeps growing with k.
"""

import math
import tempfile
from pathlib import Path

# 1. data: 4000 parallel sentences where positions (0,1), (2,3), ... of
#    the source come out exchanged on the target side
from simumt.corpus import gen_toy_corpus, split_corpus, toy_vocabulary

pairs = gen_toy_corpus(seed=11, n_pairs=4000, task="local_swap")
vocab = toy_vocabulary("local_swap")
train_pairs, held = split_corpus(pairs, 200)
train_pairs, dev = split_corpus(train_pairs, 200)
print(f"{len(train_pairs)} train / {len(dev)} dev / {len(held)} held-out "
      f"pairs, vocabulary of {len(vocab)} types")

# 2. model: the default desk-scale configuration (64-dim, 2+2 layers)
from simumt import model as M

params = M.init_parameters(M.desk_config(len(vocab)), seed=0)
print(f"model has {params.n_params()} parameters")

# 3. training: label-smoothed NLL over sampled wait-k paths, Adam with
#    an inverse-square-root schedule; about a minute of CPU time
from simumt import training as T

result = T.train(params, train_pairs, dev, T.LossConfig(mode="multi_path"),
                 epochs=6, seed=0, batch_size=32, base_lr=0.2,
                 warmup_steps=400)
for ep in result.history:
    print(f"  epoch {ep.epoch}: train loss {ep.train_loss:.3f}, "
          f"dev loss {ep.dev_loss:.3f}")

# 4. the sweep: decode the held-out set at each k and score BLEU plus
#    word-level Average Lagging from the recorded action traces
from simumt import sweep as W

testset = W.Testset(
    sources=[list(p.source) for p in held],
    references=[" ".join(vocab.token(t) for t in p.target[:-1]) for p in held],
    detokenize=lambda ids: " ".join(vocab.token(t) for t in ids),
)
k_values = [1, 2, 3, 5, math.inf]
records = W.sweep_t2t([W.T2TSystem("multi_path", [result.params])],
                      k_values, testset)

print(f"\n{'k':>5}  {'BLEU':>7}  {'AL (words)':>10}")
for rec in records:
    k = "inf" if rec.k_eval == math.inf else str(int(rec.k_eval))
    print(f"{k:>5}  {rec.bleu:7.4f}  {rec.al_words:10.3f}")

# 5. the same table as a diff-stable CSV, as the benchmark CLI writes it
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "waitk_tradeoff.csv"
    W.emit_plotdata(records, out)
    print(f"\nplot data written to {out}:")
    print(out.read_text(), end="")
