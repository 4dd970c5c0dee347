"""Inputs and measured passes of the four simumt workloads.

Every input is generated from the workload seed; `simumt` only ever sees
the generated inputs.  A *pass* is one fixed unit of work whose outputs are
identical on every repeat, so a run repeats passes for its time budget and
reports medians over them.

- `train`:  one epoch of multi-path training on `digit_to_word` pairs from
  freshly initialised weights, then a separately timed `dev_loss`.
- `sweep`:  greedy wait-k decoding of short `copy` sentences at each k,
  scored the way `metrics.sweep_t2t` scores.
- `speech`: `cascade_decode` of spoken `copy` documents at each chunk size.
- `serve`:  a closed loop of client connections replaying READ/WRITE
  schedules against an s2t `EvalServer` in a child process.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import select
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from simumt import cascade as C
from simumt import metrics as X
from simumt import model as M
from simumt import online as O
from simumt import server as S
from simumt import training as T
from simumt.corpus import DIGIT_WORDS, SentencePair, toy_vocabulary
from simumt.vocab import EOS, EOS_TOKEN

from speed import SpeedProbe, write_delays
from tracing import ROW_BUCKET_NAMES, Tracer, median, percentile, row_bucket

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture" / "copy_desk.ckpt"
FIXTURE_SHA256 = "f02ec339b10b52a5f0ea317e979b447e0d34321f66e277bb0ce70074d5a7261f"

# train: 8 Adam steps of batch 32 per pass; the short warmup makes those
# steps move the loss, so "ends below the untrained model" is a real check.
TRAIN_PAIRS = 256
DEV_PAIRS = 48
TRAIN_LR = 0.2
TRAIN_WARMUP = 16

SWEEP_SENTENCES = 44
K_GRID = (1, 3, 5, T.INFINITE_K)

SZ_GRID = (1, 5)
# Each speech document grows sentence by sentence until it holds at least
# this many source tokens.  The ladder fixes the mix of document lengths,
# so every seed costs about the same; the last rung passes 256 memory rows.
DOC_TOKEN_LADDER = (7, 14, 28, 56, 112, 192, 264)

SERVE_CONNECTIONS = 2
SERVE_SUBSTITUTE = 0.1     # share of replayed WRITEs that are not the reference word
BLOCK_MS = 100.0


LETTERS = [chr(c) for c in range(ord("a"), ord("k"))]
COPY_VOCAB = toy_vocabulary("copy")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def length_ladder(rng: np.random.Generator, n: int) -> list[int]:
    """n sentence lengths covering 2..12 evenly, in seeded order.

    Seeds then change content and order but not the mix of lengths, which
    sets the cost of a pass and the shape of the write-delay distribution.
    """
    return [int(v) for v in rng.permutation([2 + i % 11 for i in range(n)])]


def toy_pairs(rng: np.random.Generator, n: int, task: str) -> list[SentencePair]:
    """`copy` or `digit_to_word` pairs, as `corpus.gen_toy_corpus` makes
    them, but with lengths from `length_ladder`."""
    vocab = toy_vocabulary(task)
    out = []
    for length in length_ladder(rng, n):
        if task == "copy":
            src = [LETTERS[int(i)] for i in rng.integers(0, 10, size=length)]
            tgt = src
        else:
            src = [str(int(i)) for i in rng.integers(0, 10, size=length)]
            tgt = [DIGIT_WORDS[d] for d in src]
        out.append(SentencePair(source=tuple(vocab.encode_tokens(src)),
                                target=tuple(vocab.encode_tokens(tgt)) + (EOS,)))
    return out


# ---------------------------------------------------------------------------
# inputs

@dataclass
class SpeechDoc:
    words: list            # TimedWord, one per spoken letter
    reference: list[str]   # the letters, which a copy model should write

    @property
    def total_ms(self) -> float:
        return self.words[-1].end_ms


def speech_documents(seed: int) -> list[SpeechDoc]:
    """Spoken `copy` documents: letters of 200-400 ms, 20-150 ms gaps inside
    a sentence, 0.7-2.5 s pauses between sentences of 2-12 letters."""
    rng = _rng(seed, 3)
    docs = []
    for target in DOC_TOKEN_LADDER:
        words: list = []
        t = float(rng.uniform(0.0, 500.0))
        lengths = iter(length_ladder(rng, 66))
        while len(words) < target:
            if words:
                t = words[-1].end_ms + float(rng.uniform(700.0, 2500.0))
            for i in range(next(lengths)):
                if i:
                    t = words[-1].end_ms + float(rng.uniform(20.0, 150.0))
                words.append(C.TimedWord(LETTERS[int(rng.integers(0, 10))], round(t, 3),
                                         round(float(rng.uniform(200.0, 400.0)), 3)))
        docs.append(SpeechDoc(words=words, reference=[w.word for w in words]))
    return docs


def serve_testset(docs: list[SpeechDoc]) -> S.ServerTestset:
    return S.ServerTestset(mode="s2t", sources=[d.words for d in docs],
                           references=[" ".join(d.reference) for d in docs],
                           detokenize=" ".join, block_ms=BLOCK_MS)


def n_blocks(total_ms: float) -> int:
    return max(1, math.ceil(total_ms / BLOCK_MS))


@dataclass
class Schedule:
    """One replayed session: wire frames plus what the server should score."""

    doc_id: int
    frames: list[tuple[str, bytes]]       # (kind, encoded frame)
    written: list[str]                    # WRITE tokens before EOS
    g_blocks: list[int]                   # blocks read before each of them


def _frame(obj: dict) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def serve_schedules(seed: int, docs: list[SpeechDoc]) -> list[Schedule]:
    """One READ per block; every few blocks a WRITE of the next reference
    word already heard (now and then a wrong one); after the last block
    the remaining words, then EOS."""
    rng = _rng(seed, 4)
    out = []
    for doc_id, doc in enumerate(docs):
        every = int(rng.integers(2, 5))
        frames = [("START", _frame({"act": "START", "id": doc_id}))]
        written, g_blocks = [], []
        nxt = 0

        def write(blocks: int) -> None:
            nonlocal nxt
            word = doc.reference[nxt]
            if rng.random() < SERVE_SUBSTITUTE:
                word = LETTERS[(LETTERS.index(word) + int(rng.integers(1, 10))) % 10]
            frames.append(("WRITE", _frame({"act": "WRITE", "token": word})))
            written.append(word)
            g_blocks.append(blocks)
            nxt += 1

        total = n_blocks(doc.total_ms)
        for b in range(1, total + 1):
            frames.append(("READ", _frame({"act": "READ"})))
            if (b % every == 0 and nxt < len(doc.words)
                    and doc.words[nxt].end_ms <= b * BLOCK_MS):
                write(b)
        while nxt < len(doc.words):
            write(total)
        frames.append(("WRITE", _frame({"act": "WRITE", "token": EOS_TOKEN})))
        out.append(Schedule(doc_id, frames, written, g_blocks))
    return out


@dataclass
class Inputs:
    seed: int
    train_pairs: list
    dev_pairs: list
    tiny_dev: list          # train() scores a dev set each epoch; keep that negligible
    init_params: M.Parameters
    sweep_sources: list
    sweep_refs: list
    docs: list
    schedules: list


def make_inputs(seed: int) -> Inputs:
    train_pairs = toy_pairs(_rng(seed, 0), TRAIN_PAIRS, "digit_to_word")
    dev_pairs = toy_pairs(_rng(seed, 1), DEV_PAIRS, "digit_to_word")
    tiny = SentencePair(source=dev_pairs[0].source[:2],
                        target=dev_pairs[0].target[:2] + (EOS,))
    dvocab = toy_vocabulary("digit_to_word")
    # a fixed initialisation: the loss of a pass then varies with the data only
    init = M.init_parameters(M.desk_config(len(dvocab)), seed=0)
    sweep = toy_pairs(_rng(seed, 2), SWEEP_SENTENCES, "copy")
    docs = speech_documents(seed)
    return Inputs(
        seed=seed,
        train_pairs=train_pairs,
        dev_pairs=dev_pairs,
        tiny_dev=[tiny],
        init_params=init,
        sweep_sources=[list(p.source) for p in sweep],
        sweep_refs=[list(p.target[:-1]) for p in sweep],
        docs=docs,
        schedules=serve_schedules(seed, docs),
    )


def load_fixture() -> M.Parameters:
    data = FIXTURE.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != FIXTURE_SHA256:
        raise RuntimeError(f"{FIXTURE} has sha256 {digest}, expected {FIXTURE_SHA256}")
    return M.load_checkpoint(FIXTURE)


# ---------------------------------------------------------------------------
# shared pass machinery

class TimedSession(O.ModelSession):
    """A `ModelSession` that stamps each commit, for per-write delays."""

    def __init__(self, params: M.Parameters):
        super().__init__(params)
        self.stamps: list[float] = []

    def commit(self, token: int) -> None:
        super().commit(token)
        self.stamps.append(perf_counter())


@dataclass
class Ops:
    """Operations attempted and failed, by kind."""

    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def add(self, kind: str, n: int = 1, failed: int = 0, error: str | None = None) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + n
        self.failed[kind] = self.failed.get(kind, 0) + failed
        if error is not None and len(self.errors) < 20:
            self.errors.append(error)


class Phase:
    """One workload's pass, repeated; collects samples and checks.

    `measure` runs the pass and keeps its raw time stamps in `timing`;
    after an untraced pass, `account` turns them into samples at the
    nominal machine speed (see `speed`).
    """

    name = ""
    sampled = True      # the speed probe may interrupt this phase's passes

    def __init__(self, inputs: Inputs, params: M.Parameters | None):
        self.inputs = inputs
        self.params = params
        self.ops = Ops()
        self.tracer: Tracer | None = None
        self.pass_seconds: list[float] = []
        self.traced_pass_seconds: list[float] = []
        self.problems: list[str] = []
        self.first: object = None         # outputs of the first pass
        self.passes = 0
        self.probe: SpeedProbe | None = None
        self.timing = None
        self.raw_rates: list[float] = []  # per pass, unscaled, for the record
        self.record: dict = {}            # check results for the details line

    def call(self, name: str, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, args, kwargs)

    def run_pass(self, tracer: Tracer | None, probe: SpeedProbe | None) -> None:
        """One pass, traced or speed-probed or neither (not both)."""
        self.tracer = tracer
        self.probe = probe
        self.timing = None
        if tracer is not None:
            tracer.phase = self.name
            self.patch(tracer)
        elif probe is not None and self.sampled:
            probe.start()
        t0 = perf_counter()
        try:
            outputs = self.measure()
        finally:
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.unpatch_all()
            elif probe is not None and self.sampled:
                probe.stop()
            self.tracer = None
        if tracer is not None and outputs is not None:
            self.count_traced(tracer, outputs)
        if self.probe is not None and self.timing is not None:
            self.account(self.probe)
        (self.pass_seconds if tracer is None else self.traced_pass_seconds).append(elapsed)
        self.passes += 1
        if self.first is None:
            self.first = outputs
            self.check_first(outputs)
        elif outputs != self.first:
            self.problems.append(f"{self.name}: pass {self.passes} outputs differ from pass 1")

    def patch(self, tracer: Tracer) -> None:
        """Install the traced wrappers this phase reports from."""

    def measure(self):
        raise NotImplementedError

    def account(self, probe: SpeedProbe) -> None:
        """Scaled samples from the last pass's `timing`."""

    def check_first(self, outputs) -> None:
        """Correctness checks on the first pass's outputs."""

    def count_traced(self, tracer: Tracer, outputs) -> None:
        """Counts a traced pass adds, for per-operation ratios."""

    def finish(self) -> None:
        """Checks that run once, after the timed passes."""

    def metrics(self) -> dict:
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> dict:
        raise NotImplementedError

    def details(self) -> dict:
        ops = self.ops
        return {
            "passes": self.passes,
            "pass_s": self.pass_seconds,
            "traced_pass_s": self.traced_pass_seconds,
            "attempted": ops.attempted,
            "succeeded": {k: n - ops.failed[k] for k, n in ops.attempted.items()},
            "failed": ops.failed,
            "errors": ops.errors,
            "raw_rate_median": median(self.raw_rates) if self.raw_rates else None,
            **self.record,
        }


def _bucket_describe(span: str, rows_of, units_of):
    def describe(args, kwargs):
        return f"{span}@{row_bucket(rows_of(args))}", units_of(args), None
    return describe


def patch_model_streaming(tracer: Tracer) -> None:
    """encode_prefix by rows after the call (per token); decode_step by the
    rows it attends."""
    tracer.patch(M, "encode_prefix", "", _bucket_describe(
        "model.encode_prefix",
        lambda a: (a[2].n_tokens if len(a) > 2 and a[2] is not None else 0) + len(a[1]),
        lambda a: len(a[1])))
    tracer.patch(M, "decode_step", "", _bucket_describe(
        "model.decode_step", lambda a: a[4], lambda a: 1))


def bucket_metrics(tracer: Tracer, phases: tuple[str, ...]) -> dict:
    out = {}
    for bucket in ROW_BUCKET_NAMES:
        calls = toks = 0
        secs = 0.0
        d_calls = 0
        d_secs = 0.0
        for ph in phases:
            c, incl, _, u = tracer.stat(f"model.encode_prefix@{bucket}", ph)
            calls, secs, toks = calls + c, secs + incl, toks + u
            c, incl, _, _ = tracer.stat(f"model.decode_step@{bucket}", ph)
            d_calls, d_secs = d_calls + c, d_secs + incl
        out[f"model.encode_prefix.us_per_token.{bucket}"] = (
            secs / toks * 1e6 if toks else None, "us")
        out[f"model.decode_step.us.{bucket}"] = (
            d_secs / d_calls * 1e6 if d_calls else None, "us")
    return out


def add_percentiles(samples: list[float], p50: list[float], p99: list[float]) -> None:
    """Record one pass's percentiles; a run reports their median.

    Percentiles are taken per pass, not over the run's pooled samples: the
    machine's speed drifts by a quarter within seconds, and pooling passes
    from fast and slow stretches puts the median write in the gap between
    the decode-only and the decode-plus-encode writes, where it jumps.
    A pass holds over 1,000 writes, so its p99 has ten samples beyond it.
    """
    if samples:
        p50.append(percentile(samples, 50))
        p99.append(percentile(samples, 99))


def _per_call(tracer: Tracer, name: str, phase: str, scale: float):
    calls, incl, _, _ = tracer.stat(name, phase)
    return incl / calls * scale if calls else None


# ---------------------------------------------------------------------------
# train

PRIMITIVES = ("layer_norm", "layer_norm_backward", "attention",
              "attention_backward", "ffn", "ffn_backward")


class TrainPhase(Phase):
    name = "train"

    def __init__(self, inputs, params):
        super().__init__(inputs, params)
        self.cfg = T.LossConfig(mode="multi_path")
        self.train_rates: list[float] = []
        self.dev_rates: list[float] = []

    def patch(self, tracer):
        for fn in ("forward_full", "backward_full", "zero_grads", "encoder_forward") + PRIMITIVES:
            tracer.patch(M, fn, f"model.{fn}")
        tracer.patch(T, "adam_update", "training.adam_update")

    def measure(self):
        inp = self.inputs
        params = inp.init_params.copy()
        n_train, n_dev = len(inp.train_pairs), len(inp.dev_pairs)
        t0 = perf_counter()
        try:
            result = self.call("training.train", T.train, params, inp.train_pairs,
                               inp.tiny_dev, self.cfg, epochs=1, seed=inp.seed,
                               batch_size=32, base_lr=TRAIN_LR, warmup_steps=TRAIN_WARMUP)
        except Exception as e:  # a diverged or crashed pass fails all its sentences
            self.ops.add("sentences", n_train + n_dev, n_train + n_dev, f"train: {e!r}")
            return None
        t1 = perf_counter()
        if self.tracer is not None:
            self.tracer.phase = "dev"     # keep dev forward passes apart from training's
        try:
            dev = self.call("training.dev_loss", T.dev_loss, result.params,
                            inp.dev_pairs, self.cfg)
        except Exception as e:
            self.ops.add("sentences", n_train, 0)
            self.ops.add("sentences", n_dev, n_dev, f"dev_loss: {e!r}")
            return None
        t2 = perf_counter()
        self.ops.add("sentences", n_train + n_dev)
        self.timing = (t0, t1, t2)
        return (result.history[-1].train_loss, dev)

    def account(self, probe):
        t0, t1, t2 = self.timing
        self.train_rates.append(len(self.inputs.train_pairs) / probe.scaled(t0, t1))
        self.dev_rates.append(len(self.inputs.dev_pairs) / probe.scaled(t1, t2))
        self.raw_rates.append(len(self.inputs.train_pairs) / (t1 - t0))

    def count_traced(self, tracer, outputs):
        tracer.phase = "train"
        tracer.count("sentences", len(self.inputs.train_pairs))
        tracer.phase = "dev"
        tracer.count("sentences", len(self.inputs.dev_pairs))

    def check_first(self, outputs):
        if outputs is None:
            self.problems.append("train: first pass failed")
            return
        for value in outputs:
            if not math.isfinite(value):
                self.problems.append(f"train: non-finite loss {value!r}")

    def finish(self):
        if self.first is None:
            return
        untrained = T.dev_loss(self.inputs.init_params, self.inputs.dev_pairs, self.cfg)
        self.record.update(dev_loss=self.first[1], untrained_dev_loss=untrained)
        if not self.first[1] < untrained:
            self.problems.append(f"train: dev loss {self.first[1]:.4f} not below "
                                 f"the untrained model's {untrained:.4f}")

    def metrics(self):
        return {
            "train_sent_per_s": (median(self.train_rates), "sent/s"),
            "dev_sent_per_s": (median(self.dev_rates), "sent/s"),
            "train_loss": (self.first[0], "nats"),
        }

    def layer_metrics(self, tracer):
        n_sent = tracer.counts[("train", "sentences")]
        n_dev = tracer.counts[("dev", "sentences")]
        out = {f"model.{fn}.ms": (_per_call(tracer, f"model.{fn}", "train", 1e3), "ms")
               for fn in ("forward_full", "backward_full", "zero_grads")}
        out["training.adam_update.ms"] = (
            _per_call(tracer, "training.adam_update", "train", 1e3), "ms")
        prim_calls = 0
        for fn in PRIMITIVES:
            calls, _, _, _ = tracer.stat(f"model.{fn}", "train")
            prim_calls += calls
            out[f"model.{fn}.us"] = (_per_call(tracer, f"model.{fn}", "train", 1e6), "us")
            out[f"model.{fn}.calls_per_sent"] = (calls / n_sent if n_sent else None, "count")
        out["model.primitive_calls_per_sent"] = (prim_calls / n_sent if n_sent else None, "count")
        enc_runs, _, _, _ = tracer.stat("model.encoder_forward", "dev")
        _, dev_s, _, _ = tracer.stat("training.dev_loss", "dev")
        out["training.dev.encoder_runs_per_sent"] = (enc_runs / n_dev if n_dev else None, "count")
        out["training.dev.ms_per_sent"] = (dev_s / n_dev * 1e3 if n_dev else None, "ms")
        return out


# ---------------------------------------------------------------------------
# sweep

class SweepPhase(Phase):
    name = "sweep"

    def __init__(self, inputs, params):
        super().__init__(inputs, params)
        self.rates: list[float] = []
        self.write_p50: list[float] = []
        self.write_p99: list[float] = []

    def detok(self, ids) -> str:
        return " ".join(COPY_VOCAB.decode_ids(ids))

    def patch(self, tracer):
        patch_model_streaming(tracer)
        tracer.patch(X, "corpus_bleu", "metrics.corpus_bleu")
        tracer.patch(X, "average_lagging_words", "metrics.average_lagging")

    def measure(self):
        # sentence-major, so every k samples the same stretch of machine time
        inp = self.inputs
        refs = [self.detok(r).split() for r in inp.sweep_refs]
        policies = [O.OnlinePolicy(k_eval=k) for k in K_GRID]
        hyps = [[] for _ in K_GRID]
        lags = [[] for _ in K_GRID]
        decoded = [[] for _ in K_GRID]
        commits = []
        t0 = perf_counter()
        n = 0
        for i, src in enumerate(inp.sweep_sources):
            for j, policy in enumerate(policies):
                session = TimedSession(self.params)
                if self.tracer is not None:
                    self.tracer.set_request(f"k{policy.k_eval}:s{i}")
                start = perf_counter()
                n += 1
                try:
                    tokens, trace = self.call("online.decode", O.online_greedy_decode,
                                              [session], src, policy)
                except Exception as e:
                    self.ops.add("decodes", 1, 1, f"sweep k={policy.k_eval} s={i}: {e!r}")
                    hyps[j].append([])
                    decoded[j].append(None)
                    continue
                commits.append((start, session.stamps))
                self.ops.add("decodes")
                hyps[j].append(self.detok(tokens).split())
                if tokens:
                    lags[j].append(X.average_lagging_words(trace, len(src), len(tokens)))
                decoded[j].append((tuple(tokens), trace))
        outputs = []
        for j, k in enumerate(K_GRID):
            bleu = X.corpus_bleu(hyps[j], refs).score
            al = math.fsum(lags[j]) / len(lags[j]) if lags[j] else 0.0
            outputs.append((k, bleu, al, tuple(decoded[j])))
        self.timing = (t0, perf_counter(), n, commits)
        return outputs

    def account(self, probe):
        t0, t1, n, commits = self.timing
        self.rates.append(n / probe.scaled(t0, t1))
        self.raw_rates.append(n / (t1 - t0))
        delays = [d for start, stamps in commits for d in write_delays(start, stamps, probe)]
        add_percentiles(delays, self.write_p50, self.write_p99)

    def check_first(self, outputs):
        self.bleu = math.fsum(o[1] for o in outputs) / len(outputs)
        for k, _, _, decoded in outputs:
            for d in decoded:
                if d is not None:
                    try:
                        d[1].validate()
                    except ValueError as e:
                        self.problems.append(f"sweep k={k}: invalid trace: {e}")

    def finish(self):
        if self.first is None:
            return
        offline = [d for k, _, _, d in self.first if k == T.INFINITE_K][0]
        matches = 0
        for src, d in zip(self.inputs.sweep_sources, offline):
            tokens, _ = O.offline_greedy_decode(self.params, src)
            matches += d is not None and tuple(tokens) == d[0]
        self.record["offline_match"] = matches / len(offline)
        if matches != len(offline):
            self.problems.append(f"sweep: k=inf matches offline_greedy_decode on "
                                 f"{matches}/{len(offline)} sentences")

    def metrics(self):
        return {
            "sweep_sent_per_s": (median(self.rates), "sent/s"),
            "sweep_write_ms_p50": (median(self.write_p50) * 1e3, "ms"),
            "sweep_write_ms_p99": (median(self.write_p99) * 1e3, "ms"),
            "sweep_bleu": (self.bleu, "BLEU"),
        }

    def layer_metrics(self, tracer):
        ph = self.name
        _, _, decode_self, _ = tracer.stat("online.decode", ph)
        n = tracer.counts[(ph, "sentences")]
        reads = tracer.counts[(ph, "reads")]
        writes = tracer.counts[(ph, "writes")]
        return {
            "online.self_ms_per_sent": (decode_self / n * 1e3 if n else None, "ms"),
            "online.reads_per_sent": (reads / n if n else None, "count"),
            "online.writes_per_sent": (writes / n if n else None, "count"),
            "metrics.corpus_bleu.ms": (_per_call(tracer, "metrics.corpus_bleu", ph, 1e3), "ms"),
            "metrics.average_lagging.us": (
                _per_call(tracer, "metrics.average_lagging", ph, 1e6), "us"),
        }

    def count_traced(self, tracer, outputs):
        for _, _, _, decoded in outputs:
            for d in decoded:
                if d is None:
                    continue
                tracer.count("sentences")
                tracer.count("reads", len(d[1].reads()))
                tracer.count("writes", len(d[1].writes()))
                tracer.count("truncated", int(d[1].truncated))


# ---------------------------------------------------------------------------
# speech

def encode_copy_source(text: str) -> list[int]:
    return COPY_VOCAB.encode_tokens(text.split())


class SpeechPhase(Phase):
    name = "speech"

    def __init__(self, inputs, params):
        super().__init__(inputs, params)
        self.rates: list[float] = []
        self.write_p50: list[float] = []
        self.write_p99: list[float] = []
        self.audio_s = sum(d.total_ms for d in inputs.docs) / 1000.0 * len(SZ_GRID)
        self.rows_max = 0

    def patch(self, tracer):
        patch_model_streaming(tracer)
        tracer.patch(C.AsrSimulator, "advance", "cascade.asr_advance",
                     observe=lambda step: step.endpoint_fired and tracer.count("endpoints"))
        tracer.patch(C, "asr_normalize", "cascade.normalize")

    def measure(self):
        inp = self.inputs
        refs = [d.reference for d in inp.docs]
        encode = encode_copy_source
        if self.tracer is not None:
            tracer = self.tracer
            encode = lambda text: tracer.call("cascade.encode_source",  # noqa: E731
                                              encode_copy_source, (text,))
        configs = [C.CascadeConfig(sz=sz) for sz in SZ_GRID]
        hyps = [[] for _ in SZ_GRID]
        results = [[] for _ in SZ_GRID]
        commits = []
        t0 = perf_counter()
        for i, doc in enumerate(inp.docs):
            for j, config in enumerate(configs):
                session = TimedSession(self.params)
                mt = C.CascadeMT(models=[session], encode_source=encode)
                if self.tracer is not None:
                    self.tracer.set_request(f"sz{config.sz}:d{i}")
                start = perf_counter()
                try:
                    res = self.call("cascade.decode", C.cascade_decode, doc.words, mt, config)
                except Exception as e:
                    self.ops.add("documents", 1, 1, f"speech sz={config.sz} d={i}: {e!r}")
                    hyps[j].append([])
                    results[j].append(None)
                    continue
                commits.append((start, session.stamps))
                self.ops.add("documents")
                self.rows_max = max(self.rows_max, session.n_encoded)
                self.record["rows_max"] = self.rows_max
                hyps[j].append(COPY_VOCAB.decode_ids(res.tokens))
                results[j].append((tuple(res.tokens), res.trace))
        outputs = [(sz, X.corpus_bleu(hyps[j], refs).score, tuple(results[j]))
                   for j, sz in enumerate(SZ_GRID)]
        self.timing = (t0, perf_counter(), commits)
        return outputs

    def account(self, probe):
        t0, t1, commits = self.timing
        self.rates.append(self.audio_s / probe.scaled(t0, t1))
        self.raw_rates.append(self.audio_s / (t1 - t0))
        delays = [d for start, stamps in commits for d in write_delays(start, stamps, probe)]
        add_percentiles(delays, self.write_p50, self.write_p99)

    def check_first(self, outputs):
        self.bleu = math.fsum(o[1] for o in outputs) / len(outputs)
        for sz, _, results in outputs:
            for i, r in enumerate(results):
                if r is None:
                    continue
                try:
                    r[1].validate()
                except ValueError as e:
                    self.problems.append(f"speech sz={sz} d={i}: invalid trace: {e}")

    def metrics(self):
        return {
            "speech_audio_s_per_s": (median(self.rates), "s/s"),
            "speech_write_ms_p50": (median(self.write_p50) * 1e3, "ms"),
            "speech_write_ms_p99": (median(self.write_p99) * 1e3, "ms"),
            "speech_bleu": (self.bleu, "BLEU"),
        }

    def count_traced(self, tracer, outputs):
        for _, _, results in outputs:
            for r in results:
                if r is not None:
                    tracer.count("documents")

    def layer_metrics(self, tracer):
        ph = self.name
        docs = tracer.counts[(ph, "documents")]
        n_adv, adv_s, adv_self, _ = tracer.stat("cascade.asr_advance", ph)
        n_norm, norm_s, norm_self, _ = tracer.stat("cascade.normalize", ph)
        _, enc_s, enc_self, _ = tracer.stat("cascade.encode_source", ph)
        _, _, dec_self, _ = tracer.stat("cascade.decode", ph)
        endpoints = tracer.counts[(ph, "endpoints")]
        return {
            "cascade.asr_advance.us": (adv_s / n_adv * 1e6 if n_adv else None, "us"),
            "cascade.normalize.us": ((norm_s + enc_s) / n_norm * 1e6 if n_norm else None, "us"),
            "cascade.self_ms_per_doc": (
                (dec_self + adv_self + norm_self + enc_self) / docs * 1e3 if docs else None, "ms"),
            "cascade.endpoints_per_doc": (endpoints / docs if docs else None, "count"),
            "cascade.source_rows_max": (self.rows_max or None, "count"),
        }


# ---------------------------------------------------------------------------
# serve

class ServerChild:
    """The evaluation server's process: started, asked, stopped."""

    def __init__(self, seed: int, out_dir: Path, timeout: float = 60.0):
        self.timeout = timeout
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_child.py"), "--seed", str(seed),
             "--out-dir", str(out_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self._buf = b""
        ready = self._line().split()
        if len(ready) != 2 or ready[0] != "ready":
            self.close()
            raise RuntimeError(f"server child did not start: {ready!r}")
        self.echo_port = int(ready[1])

    def _line(self) -> str:
        fd = self.proc.stdout.fileno()
        deadline = perf_counter() + self.timeout
        while b"\n" not in self._buf:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("server child did not answer")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("server child exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def ask(self, command: str) -> str:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()
        return self._line()

    def close(self) -> dict | None:
        """Stop the child and wait for it; returns its final report."""
        report = None
        if self.proc.poll() is None:
            try:
                report = json.loads(self.ask("quit"))
            except (OSError, RuntimeError, TimeoutError, ValueError):
                report = None
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return report


ECHO_FRAMES = 100          # per connection, before and after each round
ECHO_NOMINAL_S = 70e-6     # median echo round trip on the reference 2-core VM


class ServePhase(Phase):
    """Scaled by an echo probe instead of the numpy one.

    A probe on the load generator's main thread would run between the
    client threads' frames and time their contention for the interpreter,
    and the round trips depend on how fast two processes wake each other,
    which a compute kernel does not see.  So each round is bracketed by
    bursts of frames over the same two connections to an echo server in the
    server's process (JSON in, JSON out, no simumt code), and the round's
    timings are scaled by median echo round trip / ECHO_NOMINAL_S.
    """

    name = "serve"
    sampled = False

    def __init__(self, inputs, params, child: ServerChild):
        super().__init__(inputs, params)
        self.child = child
        self.rates: list[float] = []
        self.read_p50: list[float] = []
        self.write_p50: list[float] = []
        self.traced_rtt_s = 0.0
        self.traced_frames = 0
        self.frames = Ops()

    def _session(self, port: int, sched: Schedule, rtts: dict, failures: list) -> None:
        try:
            with socket.create_connection(("127.0.0.1", port)) as sock, \
                    sock.makefile("rb") as reader:
                for kind, frame in sched.frames:
                    start = perf_counter()
                    sock.sendall(frame)
                    reply = reader.readline()
                    rtts[kind].append(perf_counter() - start)
                    if not reply or b'"error"' in reply:
                        failures.append(f"doc {sched.doc_id} {kind}: {reply[:200]!r}")
                        return
                if b'"done"' not in reply:
                    failures.append(f"doc {sched.doc_id}: EOS not acknowledged")
        except OSError as e:
            failures.append(f"doc {sched.doc_id}: {e!r}")

    def _client(self, port: int, queue: list, lock: threading.Lock, rtts: dict,
                failures: list, tracer: Tracer | None) -> None:
        while True:
            with lock:
                if not queue:
                    return
                sched = queue.pop(0)
            if tracer is None:
                self._session(port, sched, rtts, failures)
            else:
                tracer.call("bench.session", self._session,
                            (port, sched, rtts, failures), request=f"d{sched.doc_id}")

    def run_pass(self, tracer, probe):
        self.port = int(self.child.ask(f"new {int(tracer is not None)}").split()[1])
        super().run_pass(tracer, probe)

    def _echo(self, rtts: list) -> None:
        frame = _frame({"act": "READ"})
        with socket.create_connection(("127.0.0.1", self.child.echo_port)) as sock, \
                sock.makefile("rb") as reader:
            for _ in range(ECHO_FRAMES):
                start = perf_counter()
                sock.sendall(frame)
                reader.readline()
                rtts.append(perf_counter() - start)

    def _parallel(self, target, args) -> None:
        threads = [threading.Thread(target=target, args=args) for _ in range(SERVE_CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def measure(self):
        scheds = sorted(self.inputs.schedules, key=lambda s: -len(s.frames))
        rtts = {"START": [], "READ": [], "WRITE": []}
        failures: list = []
        lock = threading.Lock()
        queue = list(scheds)
        echo: list[float] = []
        if self.probe is not None:
            self._parallel(self._echo, (echo,))
        t0 = perf_counter()
        self._parallel(self._client, (self.port, queue, lock, rtts, failures, self.tracer))
        with socket.create_connection(("127.0.0.1", self.port)) as sock, \
                sock.makefile("rb") as reader:
            sock.sendall(_frame({"act": "SCORE"}))
            score = json.loads(reader.readline())
        t1 = perf_counter()
        if self.probe is not None:
            self._parallel(self._echo, (echo,))
        state = json.loads(self.child.ask("state"))
        n = len(scheds)
        n_frames = sum(len(s.frames) for s in scheds) + 1
        failed = n - state["done"]
        self.ops.add("sessions", n, failed, failures[0] if failures else None)
        self.frames.add("frames", n_frames, len(failures) + int("error" in score))
        self.timing = (t0, t1, state["done"], rtts, echo)
        if self.tracer is not None:
            self.traced_rtt_s += sum(sum(v) for v in rtts.values())
            self.traced_frames += sum(len(v) for v in rtts.values())
        return score

    def details(self):
        return {**super().details(), "frames_attempted": self.frames.attempted,
                "frames_failed": self.frames.failed}

    def account(self, probe):
        t0, t1, done, rtts, echo = self.timing
        factor = median(echo) / ECHO_NOMINAL_S
        self.rates.append(done / (t1 - t0) * factor)
        self.raw_rates.append(done / (t1 - t0))
        if rtts["READ"] and rtts["WRITE"]:
            self.read_p50.append(percentile(rtts["READ"], 50) / factor)
            self.write_p50.append(percentile(rtts["WRITE"], 50) / factor)

    def check_first(self, score):
        expect = self.expected_score()
        if "error" in score:
            self.problems.append(f"serve: SCORE failed: {score['error']}")
            return
        if score.get("n_sessions") != expect["n_sessions"]:
            self.problems.append(f"serve: scored {score.get('n_sessions')} sessions, "
                                 f"expected {expect['n_sessions']}")
        for key in ("bleu", "al_words", "al_ms"):
            if not abs(score.get(key, math.nan) - expect[key]) <= 1e-12:
                self.problems.append(f"serve: served {key} {score.get(key)!r} != "
                                     f"offline {expect[key]!r}")
        self.record["score"] = score

    def expected_score(self) -> dict:
        """Offline BLEU and lagging of the replayed schedules."""
        hyps, refs, al_w, al_ms = [], [], [], []
        for sched in sorted(self.inputs.schedules, key=lambda s: s.doc_id):
            doc = self.inputs.docs[sched.doc_id]
            total = n_blocks(doc.total_ms)
            events = [O.ReadEvent(index=i, timestamp_ms=min((i + 1) * BLOCK_MS, doc.total_ms))
                      for i in range(total)]
            writes = [O.WriteEvent(token=w, g_tokens=g, g_ms=min(g * BLOCK_MS, doc.total_ms))
                      for w, g in zip(sched.written, sched.g_blocks)]
            # place each write after the reads that precede it
            merged, wi = [], 0
            for i, r in enumerate(events):
                merged.append(r)
                while wi < len(writes) and writes[wi].g_tokens == i + 1:
                    merged.append(writes[wi])
                    wi += 1
            merged.append(O.WriteEvent(token=EOS_TOKEN, g_tokens=total,
                                       g_ms=min(total * BLOCK_MS, doc.total_ms)))
            trace = O.ActionTrace(events=tuple(merged))
            hyps.append(sched.written)
            refs.append(doc.reference)
            if sched.written:
                al_w.append(X.average_lagging_words(trace, total, len(sched.written)))
                al_ms.append(X.average_lagging_ms(trace, doc.total_ms, len(sched.written)))
        return {
            "n_sessions": len(hyps),
            "bleu": X.corpus_bleu(hyps, refs).score,
            "al_words": math.fsum(al_w) / len(al_w),
            "al_ms": math.fsum(al_ms) / len(al_ms),
        }

    def metrics(self):
        return {
            "serve_sessions_per_s": (median(self.rates), "sess/s"),
            "serve_read_rtt_ms_p50": (median(self.read_p50) * 1e3, "ms"),
            "serve_write_rtt_ms_p50": (median(self.write_p50) * 1e3, "ms"),
        }

    def layer_metrics(self, tracer):
        ph = self.name
        n_rev, rev_s, _, _ = tracer.stat("server.reveal", ph)
        n_wr, wr_s, _, _ = tracer.stat("server.record_write", ph)
        n_open, open_s, _, _ = tracer.stat("server.open_session", ph)
        n_sc, sc_s, _, _ = tracer.stat("server.scores", ph)
        handler = rev_s + wr_s + open_s
        frames = self.traced_frames
        return {
            "server.reveal.us": (rev_s / n_rev * 1e6 if n_rev else None, "us"),
            "server.record_write.us": (wr_s / n_wr * 1e6 if n_wr else None, "us"),
            "server.frame_overhead.us": (
                (self.traced_rtt_s - handler) / frames * 1e6 if frames else None, "us"),
            "server.scores.ms": (sc_s / n_sc * 1e3 if n_sc else None, "ms"),
            "server.frames": (tracer.counts[(ph, "frames")] or None, "count"),
            "server.sessions_done": (tracer.counts[(ph, "sessions_done")] or None, "count"),
        }
