"""
Streaming evaluation service: scores measured on the wire
=========================================================

Starts the line-JSON evaluation server, then drives it with a wait-k
client that only learns each source sentence token by token, exactly as
a live system would.  The server observes the READ/WRITE sequence
itself, so lagging cannot be misreported by the client; its BLEU and
Average Lagging match the offline sweep on the same model bit-for-bit.
"""

import math

# 1. a quick copy-task model (the demo is about the wire, not the model)
from simumt import model as M
from simumt import training as T
from simumt.corpus import gen_toy_corpus, split_corpus, toy_vocabulary

pairs = gen_toy_corpus(seed=3, n_pairs=2000, task="copy")
vocab = toy_vocabulary("copy")
train_pairs, dev = split_corpus(pairs, 200)
params = M.init_parameters(M.desk_config(len(vocab)), seed=0)
result = T.train(params, train_pairs, dev, T.LossConfig(mode="multi_path"),
                 epochs=2, seed=0, batch_size=32, base_lr=0.2,
                 warmup_steps=400)
print(f"copy model trained to dev loss {result.history[-1].dev_loss:.3f}")

# 2. a tiny test set served sentence by sentence
held = split_corpus(pairs, 8)[1]
sources_ids = [list(p.source) for p in held]
references = [" ".join(vocab.token(t) for t in p.target[:-1]) for p in held]

from simumt.online import OnlinePolicy
from simumt.server import ServerTestset, client_score, client_waitk_session, serve_eval

for k in (1, 3):
    testset = ServerTestset(
        mode="t2t",
        sources=[[vocab.token(t) for t in ids] for ids in sources_ids],
        references=references,
        detokenize=lambda toks: " ".join(toks),
    )
    server = serve_eval("127.0.0.1", 0, testset)   # port 0: pick a free one
    server.start_background()
    try:
        host, port = server.server_address
        policy = OnlinePolicy(k_eval=k)
        for sid in range(len(sources_ids)):
            client_waitk_session(host, port, sid, result.params, policy, vocab)
        wire = client_score(host, port)
    finally:
        server.stop()

    # 3. the offline sweep on the same sentences, for comparison
    from simumt import sweep as W

    offline = W.sweep_t2t(
        [W.T2TSystem("copy", [result.params])], [k],
        W.Testset(sources=sources_ids, references=references,
                  detokenize=lambda ids: " ".join(vocab.token(t)
                                                  for t in ids)))[0]
    print(f"k={k}: served BLEU {wire['bleu']:.4f} / AL {wire['al_words']:.3f}"
          f"  vs offline BLEU {offline.bleu:.4f} / AL {offline.al_words:.3f}"
          f"  (diff {abs(wire['bleu'] - offline.bleu):.2e}, "
          f"{abs(wire['al_words'] - offline.al_words):.2e})")
