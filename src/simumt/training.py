"""Prefix-to-prefix training for the wait-k model.

A read path assigns each target step t the number of visible source
tokens z_t = min(k + t - 1, |x|).  The single-path loss scores the gold
target under one such path; the multi-path objective samples k uniformly
from {1..|x|} per sentence so one model serves every lagging at test
time.  The source is encoded once per sentence regardless of the sampled
k: only the decoder's cross-attention visibility depends on it.

Losses are label-smoothed negative log-likelihood averaged over the
target tokens of a sentence.  Optimization is Adam with an inverse-
square-root learning-rate schedule and linear warmup.

Sentences are computed in groups, as padded batches, the only form the
model's teacher-forced path and ``label_smoothed_nll`` take: a
mini-batch is sorted by target length and cut into groups of at most
``_GROUP_POSITIONS`` padded target positions, each one forward and one
backward pass.  The enumerated objective (``expected_multi_path_loss``,
the multi-path ``dev_loss``) needs no backward pass, so it runs under the
larger ``_NO_GRAD_POSITIONS`` budget on rows x target length.  It encodes
each group of sentences once and decodes all |x| wait-k paths of a
sentence as rows of one row-mapped ``decoder_forward``, which computes
once per sentence all the decoder work that no path changes: the first
layer up to its cross-attention, and every layer's cross-attention keys
and values (Elbayad et al. 2020, efficient multi-path wait-k).  That pass
keeps no activations: each layer's arrays are freed as soon as the next
layer has used them, so a larger group costs little memory and few page
faults.  A single sentence (``path_loss``) is a group of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as M
from .corpus import SentencePair
from .vocab import BOS

INFINITE_K = math.inf

# padded target positions (rows x longest target) per forward/backward pass:
# large enough to amortize per-call overhead, small enough that activations
# stay a few hundred kB.  Median ms of one train pass on the benchmark's
# seed-5 inputs (7 passes after 2 warm-up, one BLAS thread, 2-core Xeon VM)
# and the pass's minor faults, with the default allocator, then with glibc
# tunables (mmap_threshold 32 MiB, trim_threshold 1 GiB, top_pad 256 MiB)
# under which the pass faults no more:
#   budget     16    24    32    48    64    128   256    512    1024
#   default    405   303   274   229   212   222   249    308    295
#   faults     1322  1292  1322  1308  1492  8637  16574  28472  28472
#   no faults  374   294   263   221   202   200   210    234    235
# Larger groups gain nothing even when they stop faulting, so a buffer
# arena that kept activations mapped would not pay here
_GROUP_POSITIONS = 64
# the same budget for passes without a backward (the dev loss): they keep
# no activations, so larger groups and decoder chunks cost little memory and
# spread per-call overhead over more rows.  Median ms of 12 standalone
# dev_loss calls on the benchmark's seed-5 dev set, each after a train call
# (one BLAS thread, 2-core Xeon VM), before and after the row-mapped decoder
# stopped keeping activations and the batched code stopped making a second
# temporary per `x @ W + b`:
#   budget            256   384   512   768
#   kept activations  28.4  25.3  26.9  31.4
#   freed as it goes  26.8  24.1  22.9  29.1
# Past 512, temporaries outgrow what the allocator keeps and every call
# page-faults (about 6,000 minor faults at 768, none at 512)
_NO_GRAD_POSITIONS = 512
# elements per chunk of the in-place Adam: the chunk's slices of the parameter,
# gradient and moment vectors and the two scratch rows, 6 x 256 KiB, stay in a
# 2 MiB L2 cache.  On the desk model (170,240 values, one core of a Xeon with
# 2 MiB L2 per core) a step took 0.82 ms at 32768, 0.84 at 16384, 1.03 at 4096
# and 1.07 with the whole vector as one chunk
_ADAM_CHUNK = 32768


def wait_k_z(k: float, t: int, src_len: int) -> int:
    """Visible source tokens before emitting target token t (1-based)."""
    if not (k == INFINITE_K or (isinstance(k, (int, np.integer)) and k >= 1)):
        raise ValueError(f"k must be a positive integer or infinite, got {k!r}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if src_len < 1:
        raise ValueError(f"src_len must be >= 1, got {src_len}")
    if k == INFINITE_K:
        return src_len
    return min(k + t - 1, src_len)


def _wait_k_rows(ks, src_len, tgt_len: int) -> np.ndarray:
    """``wait_k_z(k, t, src_len)`` for t = 1..tgt_len and every k in
    ``ks``, which the caller has validated, as one broadcast:
    (len(ks), tgt_len).  ``src_len`` is one length or (len(ks), 1)."""
    k = np.asarray(ks, dtype=np.float64)[:, None]  # float: k may be infinite
    return np.minimum(k + np.arange(tgt_len), src_len).astype(np.int64)


@dataclass(frozen=True)
class LossConfig:
    """mode "single_k" trains one lagging; "multi_path" samples k per
    sentence.  ``k`` is required (and only used) in single_k mode."""

    mode: str = "multi_path"
    k: float | None = None
    smoothing_eps: float = 0.1

    def __post_init__(self) -> None:
        if self.mode not in ("single_k", "multi_path"):
            raise ValueError(f"unknown loss mode {self.mode!r}")
        if self.mode == "single_k":
            if self.k is None:
                raise ValueError("single_k mode needs k")
            wait_k_z(self.k, 1, 1)
        if not 0.0 <= self.smoothing_eps < 1.0:
            raise ValueError("smoothing_eps must be in [0, 1)")


def label_smoothed_nll(log_probs: np.ndarray, gold: np.ndarray, eps: float,
                       lengths: np.ndarray):
    """Label-smoothed negative log-likelihood of each row of a padded batch.

    Per position: -[(1-eps) log p(gold) + eps/(V-1) sum_{v != gold} log p(v)].
    ``log_probs`` (B, m, V), ``gold`` (B, m) and each row's real length in
    ``lengths``, (B,), give ((B,) losses, dlogp): a row's loss is the mean
    over its real positions, and dlogp, shaped like log_probs, is scaled
    for that mean and zero on padded positions.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    gold = np.asarray(gold)
    lengths = np.asarray(lengths, dtype=np.int64)
    if log_probs.ndim != 3 or gold.shape != log_probs.shape[:2] or lengths.shape != gold.shape[:1]:
        raise ValueError("log_probs must be (B, m, V) with (B, m) gold ids and B lengths")
    b, m, v = log_probs.shape
    if v < 2:
        raise ValueError("need at least two classes to smooth over")
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    M.check_ids(gold, v, "gold")
    if np.any(lengths < 1) or np.any(lengths > m):
        raise ValueError("lengths must lie in [1, m]")

    real = np.arange(m) < lengths[:, None]
    gold_lp = np.take_along_axis(log_probs, gold[..., None], axis=-1)[..., 0]
    total_lp = log_probs.sum(axis=-1)
    off = eps / (v - 1)
    per_pos = np.where(real, (1.0 - eps) * gold_lp + off * (total_lp - gold_lp), 0.0)
    losses = -per_pos.sum(axis=-1) / lengths

    # padded positions divide by an infinite length: their dlogp is zero
    denom = np.where(real, lengths[:, None], np.inf)[..., None]
    dlogp = np.broadcast_to(-off / denom, log_probs.shape).copy()
    np.put_along_axis(dlogp, gold[..., None], -(1.0 - eps) / denom, axis=-1)
    return losses, dlogp


def _teacher_forcing(targets):
    """Padded targets as (decoder input, gold, target lengths)."""
    gold, y_len = M.pad_batch(targets)
    y_in = np.empty_like(gold)
    y_in[:, 0] = BOS
    y_in[:, 1:] = gold[:, :-1]
    return y_in, gold, y_len


def _target_rows(targets, ks, src_lens):
    """Teacher-forcing rows for (target, k, |x|) triples, padded:
    (y_in, gold, target lengths, wait-k path with 0 on padding).  The
    paths of all rows are one broadcast."""
    y_in, gold, y_len = _teacher_forcing(targets)
    for k, n in zip(ks, src_lens):
        wait_k_z(k, 1, n)  # validates k
    width = gold.shape[1]
    path = _wait_k_rows(ks, src_lens[:, None], width)
    path *= np.arange(width) < y_len[:, None]
    return y_in, gold, y_len, path


def _group_losses(params: M.Parameters, pairs, ks, eps: float, grads=None) -> np.ndarray:
    """Loss of each pair under its wait-k path, as one padded forward pass;
    with ``grads``, one backward pass adds the sum of their gradients."""
    x, x_len = M.pad_batch([p.source for p in pairs])
    y_in, gold, y_len, path = _target_rows([p.target for p in pairs], ks, x_len)
    logp, cache = M.forward_full(params, x, y_in, path, x_len)
    losses, dlogp = label_smoothed_nll(logp, gold, eps, y_len)
    if grads is not None:
        M.backward_full(params, cache, dlogp, grads)
    return losses


def _length_groups(lengths, rows=None, budget=None) -> list[list[int]]:
    """Indices sorted by length (stable), cut into runs whose rows x
    longest length stay within ``budget`` (default _GROUP_POSITIONS); an
    index that alone exceeds it forms its own group.  ``rows[i]`` defaults
    to 1."""
    if budget is None:
        budget = _GROUP_POSITIONS
    groups: list[list[int]] = []
    used = 0
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        r = 1 if rows is None else rows[i]
        if groups and (used + r) * lengths[i] <= budget:
            groups[-1].append(i)
            used += r
        else:
            groups.append([i])
            used = r
    return groups


def _batch_grads(params: M.Parameters, batch, ks, eps: float, grads: M.Parameters) -> np.ndarray:
    """Per-sentence losses of a mini-batch, in batch order; ``grads``
    (`model.zero_grads` of ``params``) is zeroed in place and left holding
    the mean of their gradients.  Sorted by target length, one forward and
    one backward pass per group of at most _GROUP_POSITIONS padded target
    positions adds into it, and one division scales it."""
    grads.vector[:] = 0.0
    losses = np.empty(len(batch))
    for group in _length_groups([len(p.target) for p in batch]):
        losses[group] = _group_losses(params, [batch[i] for i in group],
                                      [ks[i] for i in group], eps, grads)
    grads.vector /= len(batch)
    return losses


def _path_losses(params: M.Parameters, pairs, ks, eps: float) -> list[np.ndarray]:
    """Loss of pairs[i] under each wait-k path in ks[i], no gradients.

    Sentences are grouped by target length under _NO_GRAD_POSITIONS
    padded target positions, counting one row per path.  Each group is
    encoded once and its (sentence, k) rows decoded by one row-mapped
    ``decoder_forward``, which also runs the path-independent decoder
    work (the first layer up to cross-attention, and the cross-attention
    keys and values) once per sentence.  A sentence whose paths alone
    exceed the budget is decoded in chunks of rows within it.
    """
    out = [None] * len(pairs)
    tgt_lens = [len(p.target) for p in pairs]
    for group in _length_groups(tgt_lens, [len(k) for k in ks], _NO_GRAD_POSITIONS):
        x, x_len = M.pad_batch([pairs[i].source for i in group])
        mem, _ = M.encoder_forward(params, M.with_source_markers(x, x_len))
        y_in, gold, y_len = _teacher_forcing([pairs[i].target for i in group])
        n_paths = [len(ks[i]) for i in group]
        rows = np.repeat(np.arange(len(group)), n_paths)
        path = np.zeros((len(rows), y_in.shape[1]), dtype=np.int64)
        at = 0
        for g, i in enumerate(group):
            path[at : at + n_paths[g], : y_len[g]] = _wait_k_rows(ks[i], x_len[g], y_len[g])
            at += n_paths[g]
        visible = M.path_visibility(path, x_len[rows])
        losses = np.empty(len(rows))
        step = max(1, _NO_GRAD_POSITIONS // y_in.shape[1])
        for c in range(0, len(rows), step):
            r = rows[c : c + step]
            logp, _ = M.decoder_forward(params, mem, y_in, visible[c : c + step], r)
            losses[c : c + step], _ = label_smoothed_nll(logp, gold[r], eps, y_len[r])
        for i, loss in zip(group, np.split(losses, np.cumsum(n_paths)[:-1])):
            out[i] = loss
    return out


def _expected_losses(params: M.Parameters, pairs, eps: float) -> list[float]:
    per_k = _path_losses(params, pairs, [range(1, len(p.source) + 1) for p in pairs], eps)
    return [sum(row.tolist()) / len(row) for row in per_k]


def path_loss(params: M.Parameters, pair: SentencePair, k: float,
              eps: float = 0.1, want_grads: bool = False):
    """Label-smoothed loss of one sentence under the wait-k read path.

    Returns loss, or (loss, grads) when want_grads is set; grads are fresh
    `model.zero_grads` of ``params`` on every call.
    """
    grads = M.zero_grads(params) if want_grads else None
    loss = float(_group_losses(params, [pair], [k], eps, grads)[0])
    return (loss, grads) if want_grads else loss


def multi_path_loss(params: M.Parameters, pair: SentencePair,
                    rng: np.random.Generator, eps: float = 0.1,
                    want_grads: bool = False):
    """Single-sample estimate of the uniform-over-k objective.

    Draws k uniformly from {1..|x|}; returns (loss, k) or (loss, grads, k).
    """
    k = int(rng.integers(1, len(pair.source) + 1))
    out = path_loss(params, pair, k, eps, want_grads)
    if want_grads:
        return out[0], out[1], k
    return out, k


def expected_multi_path_loss(params: M.Parameters, pair: SentencePair,
                             eps: float = 0.1) -> float:
    """Exact uniform-over-k objective by enumerating k = 1..|x|: the source
    is encoded once and every path decoded against that memory."""
    return _expected_losses(params, [pair], eps)[0]


def lr_at(step: int, base_lr: float, warmup_steps: int) -> float:
    """Inverse-square-root schedule: base_lr * min(step^-1/2, step * warmup^-3/2)."""
    if step < 1:
        raise ValueError("step counts from 1")
    if warmup_steps < 1:
        raise ValueError("warmup_steps must be >= 1")
    if not 0.0 < base_lr < math.inf:  # written so that NaN fails too
        raise ValueError(f"base_lr must be positive and finite, got {base_lr!r}")
    return base_lr * min(step ** -0.5, step * warmup_steps ** -1.5)


@dataclass
class OptimizerState:
    """Adam moments plus schedule constants; ``step`` counts applied updates.

    ``m`` and ``v`` are flat vectors in the layout of the parameters'
    ``vector``.  ``scratch`` holds two rows of at most _ADAM_CHUNK
    elements that every ``adam_update`` reuses for its temporaries.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    base_lr: float = 0.05
    warmup_steps: int = 400
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = M.aligned_zeros((2, max(1, min(_ADAM_CHUNK, self.m.size))))


def init_optimizer(params: M.Parameters, base_lr: float = 0.05,
                   warmup_steps: int = 400) -> OptimizerState:
    lr_at(1, base_lr, warmup_steps)  # validates the schedule
    return OptimizerState(m=M.aligned_zeros(params.vector.shape),
                          v=M.aligned_zeros(params.vector.shape),
                          base_lr=base_lr, warmup_steps=warmup_steps)


def _check_layout(params: M.Parameters, grads) -> None:
    """Refuse with ValueError gradients not laid out like ``params``
    (`model.zero_grads`): the layout is a function of the config and the
    ordered tensor names and shapes."""
    def layout(p):
        return p.config, [(n, t.shape) for n, t in p.tensors.items()]

    if not isinstance(grads, M.Parameters) or layout(grads) != layout(params):
        raise ValueError("gradients must be laid out like the parameters (model.zero_grads)")


def adam_update(params: M.Parameters, grads, state: OptimizerState):
    """Apply one Adam step with bias correction at the scheduled rate.

    ``grads`` must be laid out like ``params`` (`model.zero_grads`), else
    ValueError.  Finiteness is checked once over the whole gradient
    vector; only when that check fails are the tensors searched, and a
    non-finite one is named in a FloatingPointError before anything
    changes.  The update then runs the elementwise Adam expressions in
    place over chunks of the flat vectors, into ``state.scratch``, so it
    allocates nothing.  Mutates ``params`` and ``state`` and returns them.
    """
    _check_layout(params, grads)
    g = grads.vector
    if not math.isfinite(g @ g):  # a NaN or an infinity fails it, as can an overflow
        for name, t in grads.tensors.items():
            if not np.isfinite(t).all():
                raise FloatingPointError(f"non-finite gradient for tensor {name}")
    state.step += 1
    lr = lr_at(state.step, state.base_lr, state.warmup_steps)
    b1, b2, eps = state.beta1, state.beta2, state.adam_eps
    keep1, keep2 = 1.0 - b1, 1.0 - b2
    bc1, bc2 = 1.0 - b1 ** state.step, 1.0 - b2 ** state.step
    p, m, v = params.vector, state.m, state.v
    chunk = state.scratch.shape[1]
    for at in range(0, len(p), chunk):
        c = slice(at, at + chunk)
        pc, gc, mc, vc = p[c], g[c], m[c], v[c]
        s, u = state.scratch[:, : len(pc)]
        # m = b1 * m + (1 - b1) * g
        mc *= b1
        np.multiply(gc, keep1, out=s)
        mc += s
        # v = b2 * v + (1 - b2) * g * g
        vc *= b2
        np.multiply(gc, keep2, out=s)
        s *= gc
        vc += s
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(mc, bc1, out=s)
        s *= lr
        np.divide(vc, bc2, out=u)
        np.sqrt(u, out=u)
        u += eps
        s /= u
        pc -= s
    return params, state


# the central-difference step of `grad_check`
GRAD_CHECK_STEP = 1e-5


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    n_probes: int
    tol: float
    worst: tuple[str, tuple[int, ...], float, float]  # name, index, analytic, numeric

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def grad_check(params: M.Parameters, loss_fn, n_probes: int, tol: float,
               seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn(params) -> (loss, grads)``, with grads laid out like
    ``params`` (`model.zero_grads`), else ValueError.  Probes
    ``n_probes`` coordinates sampled without replacement across all
    tensors, each stepped by ``GRAD_CHECK_STEP`` either way.  Relative
    error is |a - n| / max(|a|, |n|), taken as 0 when both magnitudes are
    below the step squared (the difference is then below finite-difference
    noise).  ``tol`` must be positive and finite, else ValueError.
    """
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    # written so that NaN fails too
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    h = GRAD_CHECK_STEP
    _, grads = loss_fn(params)
    _check_layout(params, grads)
    sizes = [(name, int(t.size)) for name, t in params.tensors.items()]
    total = sum(s for _, s in sizes)
    rng = np.random.default_rng(seed)
    flat_picks = rng.choice(total, size=min(n_probes, total), replace=False)

    def locate(flat: int):
        for name, size in sizes:
            if flat < size:
                return name, np.unravel_index(flat, params.tensors[name].shape)
            flat -= size
        raise AssertionError

    worst = ("", (), 0.0, 0.0)
    max_err = 0.0
    for flat in flat_picks:
        name, idx = locate(int(flat))
        arr = params.tensors[name]
        keep = arr[idx]
        arr[idx] = keep + h
        lo_plus, _ = loss_fn(params)
        arr[idx] = keep - h
        lo_minus, _ = loss_fn(params)
        arr[idx] = keep
        numeric = (lo_plus - lo_minus) / (2.0 * h)
        analytic = float(grads.tensors[name][idx])
        denom = max(abs(analytic), abs(numeric))
        err = 0.0 if denom < h * h else abs(analytic - numeric) / denom
        if err >= max_err:
            max_err = err
            worst = (name, tuple(int(i) for i in idx), analytic, numeric)
    return GradCheckReport(max_rel_err=float(max_err), n_probes=len(flat_picks),
                           tol=tol, worst=worst)


class TrainingDiverged(RuntimeError):
    def __init__(self, batch_index: int, epoch: int):
        super().__init__(f"non-finite loss in batch {batch_index} of epoch {epoch}")
        self.batch_index = batch_index
        self.epoch = epoch


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float
    lr: float


@dataclass
class TrainResult:
    params: M.Parameters  # weights from the best-dev epoch
    history: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0


def dev_loss(params: M.Parameters, pairs: list[SentencePair], cfg: LossConfig) -> float:
    """Deterministic held-out loss: the exact per-sentence objective
    (enumerated over k in multi_path mode, the one k in single_k mode),
    token-weighted.  Runs `_path_losses`: each group of sentences within
    _NO_GRAD_POSITIONS is encoded once for all of its paths, and the
    path-independent decoder work is done once per sentence.  An empty
    dev set raises ValueError."""
    if not pairs:
        raise ValueError("empty dev set")
    if cfg.mode == "single_k":
        losses = [float(row[0]) for row in
                  _path_losses(params, pairs, [[cfg.k]] * len(pairs), cfg.smoothing_eps)]
    else:
        losses = _expected_losses(params, pairs, cfg.smoothing_eps)
    total = 0.0
    tokens = 0
    for p, loss in zip(pairs, losses):
        total += loss * len(p.target)
        tokens += len(p.target)
    return total / tokens


def train(params: M.Parameters, train_pairs: list[SentencePair],
          dev_pairs: list[SentencePair], loss_config: LossConfig,
          epochs: int, seed: int, batch_size: int = 32,
          base_lr: float = 0.05, warmup_steps: int = 400,
          log=None) -> TrainResult:
    """Mini-batch training; returns the checkpoint with the best dev loss.

    The batch gradient is the mean of per-sentence gradients.  In
    multi_path mode each sentence draws its k in batch order, one
    ``rng.integers`` call each; the batch is then sorted by target length
    and run as groups of at most _GROUP_POSITIONS padded target positions,
    one forward and one backward pass per group, all adding into one
    gradient buffer that the whole run reuses.  With zero epochs the
    initial parameters come back unchanged and the history is empty.  A non-finite training loss aborts
    with TrainingDiverged; a non-positive or non-finite ``base_lr`` raises
    ValueError before any step.
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not train_pairs or not dev_pairs:
        raise ValueError("empty train or dev set")

    rng = np.random.default_rng(seed)
    opt = init_optimizer(params, base_lr=base_lr, warmup_steps=warmup_steps)
    grads = M.zero_grads(params)
    result = TrainResult(params=params.copy())
    best = math.inf
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_pairs))
        loss_sum = 0.0
        token_sum = 0
        for bi, start in enumerate(range(0, len(order), batch_size)):
            batch = [train_pairs[i] for i in order[start : start + batch_size]]
            if loss_config.mode == "single_k":
                ks = [loss_config.k] * len(batch)
            else:
                ks = [int(rng.integers(1, len(p.source) + 1)) for p in batch]
            losses = _batch_grads(params, batch, ks, loss_config.smoothing_eps, grads)
            batch_loss = 0.0
            for pair, loss in zip(batch, losses.tolist()):
                batch_loss += loss
                loss_sum += loss * len(pair.target)
                token_sum += len(pair.target)
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(bi, epoch)
            adam_update(params, grads, opt)
        d_loss = dev_loss(params, dev_pairs, loss_config)
        stats = EpochStats(epoch=epoch, train_loss=loss_sum / token_sum,
                           dev_loss=d_loss, lr=lr_at(opt.step, base_lr, warmup_steps))
        result.history.append(stats)
        if log is not None:
            log(stats)
        if d_loss < best:
            best = d_loss
            result.params = params.copy()
            result.best_epoch = epoch
    return result


def save_training_log(history: list[EpochStats], path, header_comment: str | None = None) -> None:
    """CSV log: epoch,train_loss,dev_loss,lr (one row per epoch)."""
    with open(path, "w", encoding="utf-8") as f:
        if header_comment:
            f.write(header_comment.rstrip("\n") + "\n")
        f.write("epoch,train_loss,dev_loss,lr\n")
        for s in history:
            f.write(f"{s.epoch},{s.train_loss!r},{s.dev_loss!r},{s.lr!r}\n")
