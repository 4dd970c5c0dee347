"""Train the copy-task fixture model that the inference workloads load.

The `sweep`, `speech` and `serve` workloads decode with this checkpoint so
that their numbers move only when inference code changes, never because
training code changed.  The model is the desk configuration on the `copy`
task, trained from a fixed seed on mixed-length sources: short sentences
like the `sweep` inputs, and long ones up to the longest `speech` document,
so that a streamed document is copied to its end instead of being closed
with an early end-of-sequence.

Run from the repository root (about four minutes on one core of a 2-core VM):

    python3 perfbench/make_fixture.py [--out perfbench/fixture/copy_desk.ckpt]

and put the printed SHA-256 into `FIXTURE_SHA256` in `perfbench/workloads.py`.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from simumt import model as M  # noqa: E402
from simumt import training as T  # noqa: E402
from simumt.corpus import SentencePair, toy_vocabulary  # noqa: E402
from simumt.vocab import EOS  # noqa: E402

SEED = 20200524
N_SHORT = 1600          # 2-12 tokens, the sweep's range
N_LONG = 1400           # log-uniform lengths up to MAX_LEN
MAX_LEN = 320           # above the longest speech document
EPOCHS = 6


def copy_pairs(rng: np.random.Generator, lengths) -> list[SentencePair]:
    vocab = toy_vocabulary("copy")
    ids = np.arange(4, len(vocab))
    out = []
    for n in lengths:
        x = tuple(int(v) for v in rng.choice(ids, size=int(n)))
        out.append(SentencePair(source=x, target=x + (EOS,)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "perfbench/fixture/copy_desk.ckpt"))
    args = ap.parse_args(argv)

    rng = np.random.default_rng(SEED)
    short = rng.integers(2, 13, size=N_SHORT)
    long = np.exp(rng.uniform(np.log(13), np.log(MAX_LEN + 1), size=N_LONG)).astype(int)
    train_pairs = copy_pairs(rng, np.concatenate([short, long]))
    dev_pairs = copy_pairs(rng, rng.integers(2, 25, size=40))

    vocab = toy_vocabulary("copy")
    params = M.init_parameters(M.desk_config(len(vocab)), seed=SEED % 1000)
    t0 = time.perf_counter()
    result = T.train(params, train_pairs, dev_pairs, T.LossConfig(mode="multi_path"),
                     epochs=EPOCHS, seed=SEED, batch_size=32, base_lr=0.2,
                     warmup_steps=400,
                     log=lambda s: print(f"epoch {s.epoch}: train {s.train_loss:.4f} "
                                         f"dev {s.dev_loss:.4f} "
                                         f"({time.perf_counter() - t0:.0f}s)", flush=True))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    M.save_checkpoint(result.params, out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"best epoch {result.best_epoch}; wrote {out} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
