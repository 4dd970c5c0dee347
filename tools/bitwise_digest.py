"""Bitwise digest of the model's numbers: one SHA-256 per part, and one over
all parts.

    python3 tools/bitwise_digest.py

Run it from anywhere in a source checkout; it imports `simumt` from `src/`
and its inputs from the benchmark (`perfbench/workloads.py`), which it only
reads.  Two checkouts that print the same overall digest on one machine
compute, bit for bit, the same:

- `train`: 2-epoch multi_path and single_k histories and parameters (the
  best-dev and the final ones) on `make_inputs(seed)` for each seed;
- `dev`: their dev losses on the seed's dev set;
- `grads`: one sentence's loss and gradients at the initial weights;
- `forward`: one sentence's `forward_full` log-probs, run as a batch of
  one and hashed as the sentence's (m, V) rows;
- `offline`: `offline_greedy_decode` tokens and the encoder memory of the
  fixture model on sweep sources, each a batch of one hashed as its
  (n + 1, d) rows;
- `online`: `online_greedy_decode` tokens, g and every log-prob row its
  session produced at k = 1, 3 and infinity;
- `streaming`: memory after a block then a one-token `encode_prefix`, and
  two `decode_step` log-prob rows;
- `cascade`: `cascade_decode` tokens, g (reads and ms) and every log-prob
  row over the benchmark's spoken documents at sz 1 and 5, which extend
  the source block by block past 256 rows.

A change meant to leave every number alone shows it by an equal overall
digest on its parent and on itself.  The digest depends on the BLAS build,
so compare only runs on the same machine.
"""
from __future__ import annotations

import os

# one BLAS thread, as in the benchmark, so that products are deterministic
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from simumt import cascade as C  # noqa: E402
from simumt import model as M  # noqa: E402
from simumt import online as O  # noqa: E402
from simumt import training as T  # noqa: E402
from simumt.vocab import BOS, EOS  # noqa: E402

SEEDS = (11, 29)
EPOCHS = 2
SINGLE_K = 3
GRAD_K = 2
K_VALUES = (1, 3, T.INFINITE_K)
N_SOURCES = 12
SZ_VALUES = (1, 5)


def _encode(value) -> bytes:
    """Bytes that identify ``value`` exactly: an array's dtype, shape and
    data, else its repr (a float's repr round-trips)."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    return repr(value).encode()


class RecordingSession(O.ModelSession):
    """A `ModelSession` that keeps every log-prob row it hands out."""

    def __init__(self, params: M.Parameters):
        super().__init__(params)
        self.rows: list[np.ndarray] = []

    def next_logprobs(self, visible: int) -> np.ndarray:
        logp = super().next_logprobs(visible)
        self.rows.append(logp)
        return logp


def digests() -> dict[str, str]:
    parts = {}

    def add(part: str, *values) -> None:
        h = parts.setdefault(part, hashlib.sha256())
        for v in values:
            h.update(_encode(v))

    for seed in SEEDS:
        inp = W.make_inputs(seed)
        for cfg in (T.LossConfig(mode="multi_path"), T.LossConfig(mode="single_k", k=SINGLE_K)):
            params = inp.init_params.copy()
            result = T.train(params, inp.train_pairs, inp.tiny_dev, cfg, epochs=EPOCHS,
                             seed=seed, base_lr=W.TRAIN_LR, warmup_steps=W.TRAIN_WARMUP)
            add("train", [(s.epoch, s.train_loss, s.dev_loss, s.lr) for s in result.history],
                result.best_epoch, result.params.vector, params.vector)
            add("dev", T.dev_loss(params, inp.dev_pairs, cfg))

        pair = inp.train_pairs[0]
        loss, grads = T.path_loss(inp.init_params, pair, GRAD_K, want_grads=True)
        add("grads", loss, grads.vector)
        n, m = len(pair.source), len(pair.target)
        path = [T.wait_k_z(GRAD_K, t, n) for t in range(1, m + 1)]
        logp, _ = M.forward_full(inp.init_params, [pair.source],
                                 [[BOS, *pair.target[:-1]]], [path])
        add("forward", logp[0])

    fixture = W.load_fixture()
    sources = W.make_inputs(SEEDS[0]).sweep_sources[:N_SOURCES]
    for src in sources:
        tokens, _ = O.offline_greedy_decode(fixture, src)
        mem, _ = M.encoder_forward(fixture, [[*src, EOS]])
        add("offline", tokens, mem[0])
        for k in K_VALUES:
            session = RecordingSession(fixture)
            tokens, trace = O.online_greedy_decode([session], src, O.OnlinePolicy(k_eval=k))
            add("online", k, tokens, trace.g_values(), *session.rows)
        enc = M.encode_prefix(fixture, src)
        enc = M.encode_prefix(fixture, [EOS], enc)
        lp1, dec = M.decode_step(fixture, enc, None, BOS, enc.n_tokens - 1)
        lp2, _ = M.decode_step(fixture, enc, dec, int(np.argmax(lp1)), enc.n_tokens)
        add("streaming", np.array(enc.memory), lp1, lp2)

    for doc in W.speech_documents(SEEDS[0]):
        for sz in SZ_VALUES:
            session = RecordingSession(fixture)
            mt = C.CascadeMT(models=[session], encode_source=W.encode_copy_source)
            res = C.cascade_decode(doc.words, mt, C.CascadeConfig(sz=sz))
            writes = res.trace.writes()
            add("cascade", sz, res.tokens, [w.g_tokens for w in writes],
                [w.g_ms for w in writes], session.n_encoded, *session.rows)

    out = {name: h.hexdigest() for name, h in parts.items()}
    overall = hashlib.sha256()
    for name, hexdigest in out.items():
        overall.update(f"{name} {hexdigest}\n".encode())
    out["overall"] = overall.hexdigest()
    return out


def main() -> None:
    for name, hexdigest in digests().items():
        print(f"{name:10s} {hexdigest}")


if __name__ == "__main__":
    main()
