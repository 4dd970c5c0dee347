"""Wait-k transformer: forward, manual backward, incremental inference.

Everything runs in float64 numpy.  The teacher-forced path (primitives,
``encoder_forward``, ``decoder_forward``, ``forward_full`` and the
backward passes) takes padded batches only: (B, n) ids give (B, n, d)
hidden rows, one sentence is a batch of one, and 1-D ids raise
ValueError.  ``decoder_forward`` also takes a row map, forward only,
that decodes several read paths of each sentence while sharing the work
no path changes.  A batch is padded at the end of every row (``pad_batch``),
with any token id; the causal masks already keep real rows off the
padding, a padded target row sees one encoder row, and a zero ``dlogp``
on padded rows keeps them out of every gradient.  The encoder is
unidirectional: every layer applies a causal self-attention
mask, so encoder output row i depends only on source positions <= i.  That
makes prefix encodings reusable as the source grows, which is the whole
point for streaming input.  The weights live in one flat vector
(`Parameters`), and the backward passes add into gradients laid out the
same way (`zero_grads`).  The batched primitives add each bias and
residual in place into the array the product or the embedding just made,
so ``x @ W + b`` costs one temporary, not two, and ``attention`` writes
``p @ v`` head-merged into the rows its output projection takes.  The
backward passes likewise work in place in arrays they make (layer norm's
dx, the attention scores' gradient, the ReLU mask, residual sums) and
write head gradients merged, by the products that make them, into one
q|k|v or k|v buffer.  An array a backward cache keeps is never written
after it is cached, and no backward pass writes its output gradient or a
cache, so one cache can be backpropagated twice.  One rule, `check_ids`, says
which ids the model takes; every entry applies it before it embeds.

Source-finished convention: the model consumes x ++ [EOS].  While the
source is still streaming, z visible tokens mean attending to encoder
rows [0, z).  Once the source is complete the marker becomes visible too,
so "everything" means z_model = |x| + 1 rows.  ``with_source_markers``
places the marker and ``path_visibility`` implements that mapping; trace
bookkeeping elsewhere stays in real-token terms.

Decoding maintains explicit states.  ``encode_prefix`` extends an encoder
state with a block of new tokens: because prefix rows are final, only the
new rows are normalized and projected, and the state caches every encoder
layer's self-attention keys/values plus each decoder layer's
cross-attention keys/values over the memory.  ``decode_step`` advances one
target position against the first ``visible`` encoder rows only (the
cross caches are sliced before any arithmetic, so output is bitwise
independent of later source content).  Both return new state objects and
never change what their inputs hold.  The caches are head-major
(H, capacity, d_head) buffers that a chain of states shares and that grow
in place when the newest state is extended (see `EncoderState`), so an
extension no longer copies the history it attends over.  A call that
handles one row (every ``decode_step``, and ``encode_prefix`` with one new
token) carries it as a (d,) vector, so its products are vector-matrix and
its layer norms take scalar statistics; outputs are bitwise those of the
(1, d) form.  The two streaming functions spend most of their time
dispatching numpy calls on small rows, so they update in place (biases,
residuals, ReLU, the layer-norm scale and shift) and multiply with
``np.dot``, which OpenBLAS computes bit for bit like ``@`` on their
contiguous weights; every row equals the out-of-place form's, bit for
bit.  Every pass, teacher-forced or streaming, projects through
the storage blocks (`storage_groups`): each self-attention projects q, k
and v with one product by its (d, 3d) block, and memory rows go into
every decoder layer's cross-attention keys and values with one product.
On OpenBLAS the column blocks of such a product equal the separate
products bit for bit, so the fusion leaves every output unchanged.  All
passes share one attention core, `_attend`.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .vocab import EOS, PAD

NEG_INF = -np.inf
_LN_EPS = 1e-5
_CKPT_MAGIC = b"SMTCKPT1"


# ---------------------------------------------------------------------------
# configuration and parameter container

# the one embedding matrix: source and target embedding and output projection
EMBED = "embed"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ffn: int = 128

    def __post_init__(self) -> None:
        if self.vocab_size < 5:
            raise ValueError("vocabulary too small (specials alone take 4 ids)")
        if self.d_model < 1 or self.d_ffn < 1 or self.n_heads < 1:
            raise ValueError("model dimensions must be positive")
        if self.n_enc_layers < 1 or self.n_dec_layers < 1:
            raise ValueError("need at least one layer per stack")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} must divide d_model {self.d_model}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    def to_dict(self) -> dict:
        """The checkpoint manifest's nine keys: the one vocabulary as equal
        source and target sizes, the dimensions, then the layout flags,
        both true (tied output projection, joint vocabulary)."""
        d = asdict(self)
        v = d.pop("vocab_size")
        return {"src_vocab_size": v, "tgt_vocab_size": v, **d,
                "tie_decoder_embeddings": True, "joint_vocabulary": True}

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        """Build from a manifest's config: exactly `to_dict`'s keys, each an
        int or a bool as `to_dict` writes it, with values `to_dict` gives
        back unchanged.  So unequal vocabulary sizes or a false layout flag
        (an older two-vocabulary or untied layout) raise ValueError, as
        does any other defect."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a mapping, not {type(d).__name__}")
        want = cls(5).to_dict()                    # the keys and types it writes
        if set(d) != set(want):
            raise ValueError(f"config keys: unknown {sorted(set(d) - set(want))}, "
                             f"missing {sorted(set(want) - set(d))}")
        for name, value in d.items():
            if type(value) is not type(want[name]):
                raise ValueError(f"config {name}={value!r} is not {type(want[name]).__name__}")
        config = cls(d["src_vocab_size"], **{f.name: d[f.name] for f in fields(cls)[1:]})
        if config.to_dict() != d:
            raise ValueError("config must have equal vocabulary sizes and both layout flags "
                             "true, the one layout this model has")
        return config


def desk_config(vocab_size: int, **kw) -> ModelConfig:
    """Default small configuration used throughout tests and demos."""
    return ModelConfig(vocab_size=vocab_size, **kw)


@dataclass
class Parameters:
    """Named tensors plus the config that shaped them.

    Weight tying is structural: one vocabulary serves both sides, and one
    tensor, ``EMBED``, is the source embedding, the target embedding and
    the output projection, so no separate copy exists that could drift
    apart under optimization.

    Construction copies ``tensors`` (in their order, as float64) into one
    contiguous float64 ``vector`` that starts on a 64-byte boundary
    (`aligned_zeros`), laid out by `_views`: the tensors that
    every pass multiplies together sit side by side in ``blocks``
    (see `storage_groups`), each block one contiguous region, and every
    other tensor is a contiguous region of its own.  ``tensors`` (each
    checkpoint name) and ``blocks`` are views into ``vector``, so an
    in-place edit of the vector (``adam_update``'s) shows in both; rebinding
    a name to a new array would not.  A group whose names are not all
    present gets no block.  Gradients (`zero_grads`) share the layout.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray]
    vector: np.ndarray = field(init=False, repr=False)
    blocks: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        given = self.tensors
        shapes = {name: np.shape(a) for name, a in given.items()}
        self.vector = aligned_zeros((sum(math.prod(s) for s in shapes.values()),))
        self.tensors, self.blocks = _views(self.config, shapes, self.vector)
        for name, a in given.items():
            self.tensors[name][...] = a

    def _over(self, vector: np.ndarray) -> "Parameters":
        """Parameters of this config and layout whose views read ``vector``
        (built without the constructor, which would copy every tensor)."""
        out = object.__new__(Parameters)
        out.config, out.vector = self.config, vector
        shapes = {name: t.shape for name, t in self.tensors.items()}
        out.tensors, out.blocks = _views(self.config, shapes, vector)
        return out

    def copy(self) -> "Parameters":
        """An independent copy: the vector is copied once."""
        vector = aligned_zeros(self.vector.shape)
        vector[:] = self.vector
        return self._over(vector)

    def n_params(self) -> int:
        return sum(int(t.size) for t in self.tensors.values())


def aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """float64 zeros whose first element starts a 64-byte cache line.

    With glibc, numpy 2.4's large buffers start 16 bytes into a line, and
    on a Xeon core an elementwise product of two such (16384,) vectors
    took 6.8 us against 3.1 us aligned.  The zeros are written, not left
    to ``calloc``: a large calloc'd buffer maps the kernel's zero page, so
    an in-place update (``+=``) of it faulted twice per page, on the read
    and again on the write."""
    n = math.prod(shape)
    buf = np.empty(n + 7)
    start = (-buf.ctypes.data % 64) // 8
    out = buf[start : start + n]
    out.fill(0.0)
    return out.reshape(shape)


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every tensor ``config`` implies, in creation order."""
    d, f = config.d_model, config.d_ffn
    shapes: dict[str, tuple[int, ...]] = {EMBED: (config.vocab_size, d)}

    def add_ln(prefix: str) -> None:
        shapes[prefix + ".g"] = (d,)
        shapes[prefix + ".b"] = (d,)

    def add_attn(prefix: str) -> None:
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{w}"] = (d, d)
            shapes[f"{prefix}.{w.replace('w', 'b')}"] = (d,)

    def add_ffn(prefix: str) -> None:
        shapes[prefix + ".w1"] = (d, f)
        shapes[prefix + ".b1"] = (f,)
        shapes[prefix + ".w2"] = (f, d)
        shapes[prefix + ".b2"] = (d,)

    for l in range(config.n_enc_layers):
        add_ln(f"enc.{l}.ln1")
        add_attn(f"enc.{l}.attn")
        add_ln(f"enc.{l}.ln2")
        add_ffn(f"enc.{l}.ffn")
    add_ln("enc.final_ln")

    for l in range(config.n_dec_layers):
        add_ln(f"dec.{l}.ln1")
        add_attn(f"dec.{l}.self_attn")
        add_ln(f"dec.{l}.ln2")
        add_attn(f"dec.{l}.cross_attn")
        add_ln(f"dec.{l}.ln3")
        add_ffn(f"dec.{l}.ffn")
    add_ln("dec.final_ln")
    return shapes


def storage_groups(config: ModelConfig) -> dict[str, tuple[str, ...]]:
    """Block name -> the tensors it holds side by side along the last
    axis: each self-attention's q|k|v weights, (d, 3d), and biases, (3d,);
    and the cross-attention k|v of every decoder layer, layer by layer,
    (d, n_dec * 2d) and (n_dec * 2d,).  Every pass, teacher-forced or
    streaming, projects each group with one product."""
    groups = {}
    for stack, n_layers, attn in (("enc", config.n_enc_layers, "attn"),
                                  ("dec", config.n_dec_layers, "self_attn")):
        for l in range(n_layers):
            p = f"{stack}.{l}.{attn}"
            groups[p + ".wqkv"] = (p + ".wq", p + ".wk", p + ".wv")
            groups[p + ".bqkv"] = (p + ".bq", p + ".bk", p + ".bv")
    cross = [f"dec.{l}.cross_attn" for l in range(config.n_dec_layers)]
    groups["dec.cross_attn.wkv"] = tuple(p + w for p in cross for w in (".wk", ".wv"))
    groups["dec.cross_attn.bkv"] = tuple(p + b for p in cross for b in (".bk", ".bv"))
    return groups


def _views(config: ModelConfig, shapes: dict[str, tuple[int, ...]], vector: np.ndarray):
    """The one storage layout: (tensors, blocks) as views into ``vector``.

    Tensors follow the order of ``shapes``.  Each `storage_groups` block
    whose names are all present is one contiguous region, placed where
    its first member comes, and holds its members side by side along the
    last axis; every other tensor is a contiguous region of its own."""
    member_of = {}
    for block, names in storage_groups(config).items():
        if all(n in shapes for n in names):
            if len({shapes[n][:-1] for n in names}) != 1:
                raise ValueError(f"tensors of block {block} differ in leading shape")
            member_of.update((n, (block, names)) for n in names)
    tensors, blocks = {}, {}
    at = 0
    for name, shape in shapes.items():
        block, names = member_of.get(name, (None, ()))
        if block in blocks:
            continue  # laid out with the block's first member
        if block is None:
            size = math.prod(shape)
            tensors[name] = vector[at : at + size].reshape(shape)
        else:
            bshape = shape[:-1] + (sum(shapes[n][-1] for n in names),)
            size = math.prod(bshape)
            b = blocks[block] = vector[at : at + size].reshape(bshape)
            col = 0
            for n in names:
                tensors[n] = b[..., col : col + shapes[n][-1]]
                col += shapes[n][-1]
        at += size
    return {name: tensors[name] for name in shapes}, blocks


def init_parameters(config: ModelConfig, seed: int) -> Parameters:
    """Fresh weights; identical (config, seed) gives identical tensors.

    Matrices draw from a scaled uniform distribution; biases start at
    zero, layer-norm gains at one.  Tensors are created in the order of
    ``parameter_shapes`` so draws are reproducible.
    """
    rng = np.random.default_rng(seed)
    t: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        if len(shape) == 2:
            t[name] = _glorot(rng, shape)
        elif name.endswith(".g"):
            t[name] = np.ones(shape)
        else:
            t[name] = np.zeros(shape)
    return Parameters(config, t)


def zero_grads(params: Parameters) -> Parameters:
    """Zero gradients in the layout of ``params``, built with one
    allocation: the gradient of each tensor and block is the view of the
    same name, and all of them live in ``.vector``."""
    return params._over(aligned_zeros(params.vector.shape))


# ---------------------------------------------------------------------------
# primitives (forward returns a cache consumed by the matching backward)

def sinusoid_rows(start: int, n: int, d: int) -> np.ndarray:
    """Sinusoidal position rows for absolute positions start..start+n-1."""
    pos = np.arange(start, start + n, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, d, 2, dtype=np.float64) * (-math.log(10000.0) / d))
    out = np.empty((n, d))
    out[:, 0::2] = np.sin(pos * div)
    out[:, 1::2] = np.cos(pos * div[: d // 2])
    return out


def _standardize(x: np.ndarray):
    """(x - mean) / sqrt(var + eps) over the last axis, and that 1 / sqrt,
    in one fresh array.  The mean is computed once and the centred rows
    reused, with the same reductions ``x.mean``/``x.var`` perform, so
    results are bitwise those of the two-call form.  A (d,) row (the
    streaming step's) takes scalar statistics, with ``math.sqrt`` on its
    variance; its output is bitwise that of the (1, d) call."""
    n = x.shape[-1]
    if x.ndim == 1:
        xhat = x - np.add.reduce(x) / n
        inv = 1.0 / math.sqrt(np.add.reduce(xhat * xhat) / n + _LN_EPS)
    else:
        xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n + _LN_EPS)
    xhat *= inv
    return xhat, inv


def layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Normalize over the last axis (`_standardize`), then scale and shift;
    returns (y, backward cache)."""
    xhat, inv = _standardize(x)
    y = xhat * g
    y += b
    return y, (xhat, inv, g)


def _rows(x: np.ndarray) -> np.ndarray:
    """All rows of a (..., d) array as one (rows, d) matrix."""
    return x.reshape(-1, x.shape[-1])


def layer_norm_backward(dy: np.ndarray, cache):
    """(dx, dg, db) of `layer_norm` for the output gradient ``dy``.  dx is
    ``inv * (dxhat - m1 - xhat * m2)``, evaluated in that order in place in
    the ``dy * g`` array; ``dy`` and the cache are only read."""
    xhat, inv, g = cache
    tmp = dy * xhat
    dg = np.add.reduce(_rows(tmp), axis=0)
    db = np.add.reduce(_rows(dy), axis=0)
    dx = dy * g                                 # dxhat, then dx in place
    np.multiply(dx, xhat, out=tmp)
    n = dy.shape[-1]  # add.reduce / n is what .mean computes, without its overhead
    m1 = np.add.reduce(dx, axis=-1, keepdims=True) / n
    m2 = np.add.reduce(tmp, axis=-1, keepdims=True) / n
    dx -= m1
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx, dg, db


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(B, m, d) rows as (B, n_heads, m, d / n_heads) heads: a view of a
    contiguous ``x``, so a product written into it lands head-merged in
    ``x``."""
    b, m, d = x.shape
    return x.reshape(b, m, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def causal_mask(m: int, n: int, offset: int = 0) -> np.ndarray:
    """Additive mask letting query row i see key columns <= i + offset."""
    rows = np.arange(m)[:, None] + offset
    cols = np.arange(n)[None, :]
    return np.where(cols <= rows, 0.0, NEG_INF)


def visibility_mask(visible: np.ndarray, n: int) -> np.ndarray:
    """Additive mask letting query row i of sentence b see key columns
    < visible[b, i]: (B, m) gives a (B, m, n) mask."""
    return np.where(np.arange(n) < np.asarray(visible)[..., None], 0.0, NEG_INF)


def _attend(qh: np.ndarray, kh: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """The attention weights over heads, (..., H, m, d_head) queries against
    (..., H, n, d_head) keys: scaled scores, the additive ``mask``,
    softmax.  ``mask`` is (..., m, n'), the same for every head, and covers
    the last n' <= n key columns; every query sees the columns before them.
    The softmax runs in place in the scores, with the ufunc reductions
    ``.max``/``.sum`` call, and -inf entries come out exactly 0.  Returns
    p, (..., H, m, n); each caller multiplies it by its value heads."""
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(qh.shape[-1])
    if mask is not None:
        masked = scores[..., -mask.shape[-1]:]
        masked += mask[..., None, :, :]
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return scores


def attention(params: Parameters, prefix: str, x: np.ndarray, mask: np.ndarray | None,
              kv: tuple[np.ndarray, np.ndarray] | None = None):
    """Multi-head attention of the rows of ``x``, (B, m, d), per sentence;
    ``mask`` is (m, n), shared by the batch, or (B, m, n).
    Without ``kv`` it is a self-attention, projecting q|k|v with one
    product by the ``wqkv``/``bqkv`` block.  ``kv`` holds key and value
    heads the caller has projected (a cross-attention's come from
    `_cross_kv_rows`); only the queries are then projected, by ``wq``.
    The heads are views of the projection, and ``p @ v`` is written
    head-merged into the (B, m, d) rows ``a`` the output projection takes.
    Returns (out, cache); the cache is (x, self-attention?, qh, kh, vh, p,
    a, prefix)."""
    t = params.tensors
    h = params.config.n_heads
    b, m, d = x.shape
    if kv is None:
        qkv = x @ params.blocks[f"{prefix}.wqkv"]
        qkv += params.blocks[f"{prefix}.bqkv"]
        # (B, m, 3, H, d_head) to three (B, H, m, d_head) views
        qh, kh, vh = qkv.reshape(b, m, 3, h, -1).transpose(2, 0, 3, 1, 4)
    else:
        q = x @ t[f"{prefix}.wq"]
        q += t[f"{prefix}.bq"]
        qh = _split_heads(q, h)
        kh, vh = kv
    p = _attend(qh, kh, mask)
    a = np.empty((b, m, d))
    np.matmul(p, vh, out=_split_heads(a, h))
    out = a @ t[f"{prefix}.wo"]
    out += t[f"{prefix}.bo"]
    return out, (x, kv is None, qh, kh, vh, p, a, prefix)


def attention_backward(params: Parameters, dout: np.ndarray, cache, grads: Parameters):
    """Add the gradients of ``attention`` into ``grads`` and return
    (dq_in, dkv_in, dkv): dkv_in is the gradient of the rows keys and
    values come from (``x`` itself, or a cross-attention's memory).

    The head gradients are written head-merged, by the products that
    make them, into one buffer: (B, m, 3, H, d_head) q|k|v rows for a
    self-attention, or (B, n, 2, H, d_head) k|v rows for a
    cross-attention, whose queries get their own (B, m, d) rows.
    A self-attention adds its q|k|v weight and bias gradients into the
    ``wqkv``/``bqkv`` blocks with one product and one row sum, and returns
    dkv None.  A cross-attention adds those of ``wq``/``bq`` only and
    returns its key|value output gradients as (rows, 2d) ``dkv``;
    ``decoder_backward`` adds every layer's into the shared
    ``dec.cross_attn`` blocks at once.  Column blocks of one product equal
    the separate products on OpenBLAS for the desk width (d_model 64); at
    d_model 32 with 385 rows or more they can differ in the last bits.
    ``dout`` and the cache are only read."""
    x, self_attention, qh, kh, vh, p, a, prefix = cache
    t, g = params.tensors, grads.tensors
    h, dh = params.config.n_heads, params.config.head_dim
    scale = 1.0 / math.sqrt(dh)
    b, m, d = dout.shape
    n = kh.shape[-2]

    g[f"{prefix}.wo"] += _rows(a).T @ _rows(dout)
    g[f"{prefix}.bo"] += np.add.reduce(_rows(dout), axis=0)
    dah = _split_heads(dout @ t[f"{prefix}.wo"].T, h)

    dp = dah @ vh.swapaxes(-1, -2)
    if self_attention:
        dqkv = np.empty((b, m, 3, h, dh))
        dq, dk, dv = dqkv.transpose(2, 0, 1, 3, 4)       # (B, rows, H, d_head) views
    else:
        dq = np.empty((b, m, h, dh))
        dqkv = np.empty((b, n, 2, h, dh))
        dk, dv = dqkv.transpose(2, 0, 1, 3, 4)
    np.matmul(p.swapaxes(-1, -2), dah, out=dv.swapaxes(1, 2))
    # dscores = p * (dp - sum(dp * p)) * scale, in place in dp
    dp -= np.add.reduce(dp * p, axis=-1, keepdims=True)
    dp *= p
    dp *= scale
    np.matmul(dp, kh, out=dq.swapaxes(1, 2))
    np.matmul(dp.swapaxes(-1, -2), qh, out=dk.swapaxes(1, 2))

    dq, dk, dv = dq.reshape(b, m, d), dk.reshape(b, n, d), dv.reshape(b, n, d)
    dqkv = dqkv.reshape(b * n, -1)
    if self_attention:
        grads.blocks[f"{prefix}.wqkv"] += _rows(x).T @ dqkv
        grads.blocks[f"{prefix}.bqkv"] += np.add.reduce(dqkv, axis=0)
        dkv = None
    else:
        g[f"{prefix}.wq"] += _rows(x).T @ _rows(dq)
        g[f"{prefix}.bq"] += np.add.reduce(_rows(dq), axis=0)
        dkv = dqkv
    dq_in = dq @ t[f"{prefix}.wq"].T
    dkv_in = dk @ t[f"{prefix}.wk"].T
    dkv_in += dv @ t[f"{prefix}.wv"].T
    return dq_in, dkv_in, dkv


def ffn(params: Parameters, prefix: str, x: np.ndarray):
    """The position-wise feed-forward block, ``relu(x @ w1 + b1) @ w2 + b2``,
    with the bias and the ReLU applied in place in the first product.
    Returns (out, cache); the cache is (x, r, prefix), r the ReLU output."""
    t = params.tensors
    r = x @ t[f"{prefix}.w1"]
    r += t[f"{prefix}.b1"]
    np.maximum(r, 0.0, out=r)
    out = r @ t[f"{prefix}.w2"]
    out += t[f"{prefix}.b2"]
    return out, (x, r, prefix)


def ffn_backward(params: Parameters, dout: np.ndarray, cache, grads: Parameters) -> np.ndarray:
    """Add the gradients of `ffn` into ``grads`` and return that of its
    input.  The ReLU's mask is ``r > 0``, which selects the entries
    ``h1 > 0`` does (NaN and signed zeros included)."""
    x, r, prefix = cache
    t, g = params.tensors, grads.tensors
    g[f"{prefix}.w2"] += _rows(r).T @ _rows(dout)
    g[f"{prefix}.b2"] += np.add.reduce(_rows(dout), axis=0)
    dh1 = dout @ t[f"{prefix}.w2"].T
    dh1 *= r > 0.0
    g[f"{prefix}.w1"] += _rows(x).T @ _rows(dh1)
    g[f"{prefix}.b1"] += np.add.reduce(_rows(dh1), axis=0)
    return dh1 @ t[f"{prefix}.w1"].T


# a pure cache: threads that race on it at worst build equal tables twice
_POSITION_TABLES: dict[int, np.ndarray] = {}


def _position_rows(start: int, n: int, d: int) -> np.ndarray:
    """``sinusoid_rows(start, n, d)`` sliced from a per-``d`` table that
    doubles when a position runs past it (same values, bit for bit)."""
    table = _POSITION_TABLES.get(d)
    if table is None or len(table) < start + n:
        size = max(start + n, 2 * len(table) if table is not None else 64)
        table = _POSITION_TABLES[d] = sinusoid_rows(0, size, d)
    return table[start : start + n]


def _embed(params: Parameters, name: str, ids, start_pos: int) -> np.ndarray:
    """Scaled embeddings plus positions, position start_pos at column 0:
    a batch's (B, n) ids give (B, n, d) rows, a streaming block's (n,) ids
    (n, d) rows, and one int id a (d,) row, which takes its position in
    place."""
    d = params.config.d_model
    if isinstance(ids, (int, np.integer)):
        h = params.tensors[name][ids] * math.sqrt(d)
        h += _position_rows(start_pos, 1, d)[0]
        return h
    ids = np.asarray(ids)
    pos = _position_rows(start_pos, ids.shape[-1], d)
    return params.tensors[name][ids] * math.sqrt(d) + pos


def _embed_backward(params: Parameters, name: str, ids: np.ndarray,
                    dh: np.ndarray, grads: Parameters) -> None:
    np.add.at(grads.tensors[name], ids, dh * math.sqrt(params.config.d_model))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    mx = np.maximum.reduce(logits, axis=-1, keepdims=True)
    z = np.log(np.add.reduce(np.exp(logits - mx), axis=-1, keepdims=True)) + mx
    return logits - z


# ---------------------------------------------------------------------------
# teacher-forced full forward/backward (training path)

def pad_batch(seqs: Sequence[Sequence[int]]):
    """Sequences as rows PAD-padded at the end to the longest one:
    ((B, w) int64 ids, (B,) lengths).  ValueError unless every id is an
    integer, the dtype rule of `check_ids`, checked once over the batch;
    the range is left to the entry the ids go to."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    ids = np.array([i for s in seqs for i in s])
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"ids must be integers, not {ids.dtype}")
    out = np.full((len(seqs), int(lengths.max())), PAD, dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = ids
    return out, lengths


def with_source_markers(x: np.ndarray, x_len: np.ndarray) -> np.ndarray:
    """Padded (B, n) sources with real lengths x_len as (B, n + 1) encoder
    input: the end marker at column x_len[b], padding after it."""
    out = np.concatenate([x, np.full((len(x), 1), PAD, dtype=np.int64)], axis=1)
    out[np.arange(len(x)), x_len] = EOS
    return out


def path_visibility(path: np.ndarray, x_len: np.ndarray) -> np.ndarray:
    """Encoder rows each target row of a (B, m) path sees.

    ``path[b]`` holds non-decreasing z_t in 1..x_len[b] for the real
    target positions, then 0 for padding.  A real row sees z_t rows, or
    x_len[b] + 1, the end marker too, once z_t = x_len[b]; padded rows see
    encoder row 0 only.
    """
    real = path > 0
    n_real = real.sum(axis=-1)
    if (np.any(path < 0) or np.any(n_real == 0)
            or not np.array_equal(real, np.arange(path.shape[-1]) < n_real[:, None])):
        raise ValueError("each path needs z >= 1 at its real positions, then 0 padding")
    if np.any(real[:, 1:] & (path[:, 1:] < path[:, :-1])):
        raise ValueError("path must be non-decreasing")
    bound = x_len[:, None]
    if np.any(path > bound):
        raise ValueError("path reads past the end of the source")
    return np.where(real, np.where(path < bound, path, bound + 1), 1)


def check_ids(ids, vocab_size: int, kind: str) -> np.ndarray:
    """``ids`` as an array; ValueError, naming them ``kind`` ids, unless each
    is an integer in [0, vocab_size).  `decode_step` compares its one id
    itself."""
    a = np.asarray(ids)
    if a.size == 0:
        return a.astype(np.int64)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{kind} ids must be integers, not {a.dtype}")
    if not (0 <= np.minimum.reduce(a, axis=None) and np.maximum.reduce(a, axis=None) < vocab_size):
        bad = a[(a < 0) | (a >= vocab_size)][0]
        raise ValueError(f"{kind} id {bad} outside [0, {vocab_size})")
    return a


def _id_batch(ids, vocab_size: int, kind: str) -> np.ndarray:
    """`check_ids` for the teacher-forced path, which takes (B, n) only."""
    ids = check_ids(ids, vocab_size, kind)
    if ids.ndim != 2:
        raise ValueError(f"{kind} ids must be a (B, n) batch, not shape {ids.shape}")
    return ids


def encoder_forward(params: Parameters, x_model: np.ndarray):
    """Causal encoder over (B, n) marker-included sources (`check_ids`).
    Returns ((B, n, d) memory, cache)."""
    x_model = _id_batch(x_model, params.config.vocab_size, "source")
    n = x_model.shape[-1]
    h = _embed(params, EMBED, x_model, 0)
    mask = causal_mask(n, n)
    layer_caches = []
    for l in range(params.config.n_enc_layers):
        a_in, ln1c = layer_norm(h, params.tensors[f"enc.{l}.ln1.g"], params.tensors[f"enc.{l}.ln1.b"])
        a_out, attc = attention(params, f"enc.{l}.attn", a_in, mask)
        h += a_out
        f_in, ln2c = layer_norm(h, params.tensors[f"enc.{l}.ln2.g"], params.tensors[f"enc.{l}.ln2.b"])
        f_out, ffnc = ffn(params, f"enc.{l}.ffn", f_in)
        h += f_out
        layer_caches.append((ln1c, attc, ln2c, ffnc))
    mem, lnfc = layer_norm(h, params.tensors["enc.final_ln.g"], params.tensors["enc.final_ln.b"])
    return mem, (x_model, layer_caches, lnfc)


def encoder_backward(params: Parameters, cache, dmem: np.ndarray, grads: Parameters) -> None:
    x_model, layer_caches, lnfc = cache
    g = grads.tensors
    dh, dg, db = layer_norm_backward(dmem, lnfc)
    g["enc.final_ln.g"] += dg
    g["enc.final_ln.b"] += db
    for l in reversed(range(params.config.n_enc_layers)):
        ln1c, attc, ln2c, ffnc = layer_caches[l]
        df_in = ffn_backward(params, dh, ffnc, grads)
        dh2, dg, db = layer_norm_backward(df_in, ln2c)
        g[f"enc.{l}.ln2.g"] += dg
        g[f"enc.{l}.ln2.b"] += db
        dh += dh2
        dq, dkv, _ = attention_backward(params, dh, attc, grads)
        dq += dkv
        da_in, dg, db = layer_norm_backward(dq, ln1c)
        g[f"enc.{l}.ln1.g"] += dg
        g[f"enc.{l}.ln1.b"] += db
        dh += da_in
    _embed_backward(params, EMBED, x_model, dh, grads)


def _cross_kv_rows(params: Parameters, mem: np.ndarray, rows: np.ndarray | None = None):
    """Every decoder layer's cross-attention key and value heads over
    ``mem``, (S, n, d), with one product by the grouped k|v block:
    [layer][0 or 1] is (S, H, n, d_head).  ``rows``, (R,), gathers
    sentences per row after the product: (R, H, n, d_head)."""
    cfg = params.config
    b = params.blocks
    kv = mem @ b["dec.cross_attn.wkv"] + b["dec.cross_attn.bkv"]
    kv = kv.reshape(mem.shape[:-1] + (cfg.n_dec_layers, 2, cfg.n_heads, cfg.head_dim))
    if rows is not None:
        kv = kv[rows]
    # (..., n, layer, 2, H, d_head) to (layer, 2, ..., H, n, d_head)
    return np.moveaxis(kv, (-4, -3, -5), (0, 1, -2))


def decoder_forward(params: Parameters, mem: np.ndarray, y_in: np.ndarray,
                    visible_model: np.ndarray, rows: np.ndarray | None = None):
    """Teacher-forced decoder over ``mem`` (B, n, d); target row t of
    y_in, (B, m) target ids (`check_ids`), sees the first
    visible_model[..., t] encoder rows.  Returns (logprobs (B, m, V),
    cache).  The cross-attention keys and values come from
    `_cross_kv_rows`.

    ``rows``, (R,), decodes several read paths of the same sentences:
    ``mem`` (S, n, d) and ``y_in`` (S, m) then hold one entry per
    sentence, and row r decodes sentence rows[r] under visible_model[r],
    (R, m), giving (R, m, V).  Work that no path changes runs once per
    sentence: the target embedding, the first layer up to its
    cross-attention (teacher forcing feeds every path the same y_in, and
    visibility enters only there), and every layer's cross-attention keys
    and values.  A row-mapped pass is forward-only and keeps no
    activations: each layer's arrays are freed once the next layer has
    used them, its cache is ``(rows,)`` alone, and ``decoder_backward``
    refuses it.
    """
    y_in = _id_batch(y_in, params.config.vocab_size, "target")
    m = y_in.shape[-1]
    h = _embed(params, EMBED, y_in, 0)
    self_mask = causal_mask(m, m)
    cross_mask = visibility_mask(visible_model, mem.shape[-2])
    cross_kv = _cross_kv_rows(params, mem, rows)
    layer_caches = []
    for l in range(params.config.n_dec_layers):
        a_in, ln1c = layer_norm(h, params.tensors[f"dec.{l}.ln1.g"], params.tensors[f"dec.{l}.ln1.b"])
        a_out, selfc = attention(params, f"dec.{l}.self_attn", a_in, self_mask)
        h += a_out
        c_in, ln2c = layer_norm(h, params.tensors[f"dec.{l}.ln2.g"], params.tensors[f"dec.{l}.ln2.b"])
        if l == 0 and rows is not None:  # the paths differ from here on
            h, c_in = h[rows], c_in[rows]
        c_out, crossc = attention(params, f"dec.{l}.cross_attn", c_in, cross_mask, cross_kv[l])
        h += c_out
        f_in, ln3c = layer_norm(h, params.tensors[f"dec.{l}.ln3.g"], params.tensors[f"dec.{l}.ln3.b"])
        f_out, ffnc = ffn(params, f"dec.{l}.ffn", f_in)
        h += f_out
        if rows is None:
            layer_caches.append((ln1c, selfc, ln2c, crossc, ln3c, ffnc))
    hf, lnfc = layer_norm(h, params.tensors["dec.final_ln.g"], params.tensors["dec.final_ln.b"])
    e_out = params.tensors[EMBED]
    logits = hf @ e_out.T
    logp = log_softmax(logits)
    if rows is not None:
        return logp, (rows,)
    return logp, (y_in, mem, layer_caches, lnfc, hf, logp)


def decoder_backward(params: Parameters, cache, dlogp: np.ndarray, grads: Parameters) -> np.ndarray:
    """Add the decoder's gradients into ``grads``; returns dmem (gradient
    wrt encoder memory).  Every layer's cross-attention key|value
    gradients go into the ``dec.cross_attn`` blocks with one product after
    the layer loop.  ``dlogp`` and the cache are only read; the residual
    and memory gradients add in place into arrays this pass made."""
    if len(cache) == 1:
        raise ValueError("a row-mapped decoder pass is forward-only")
    y_in, mem, layer_caches, lnfc, hf, logp = cache
    g = grads.tensors
    dlogits = np.exp(logp)                  # dlogp - exp(logp) * sum(dlogp), in place
    dlogits *= np.add.reduce(dlogp, axis=-1, keepdims=True)
    np.subtract(dlogp, dlogits, out=dlogits)
    e_out = params.tensors[EMBED]
    g[EMBED] += _rows(dlogits).T @ _rows(hf)
    dhf = dlogits @ e_out
    dh, dg, db = layer_norm_backward(dhf, lnfc)
    g["dec.final_ln.g"] += dg
    g["dec.final_ln.b"] += db
    dmem = None
    cross_dkv = [None] * params.config.n_dec_layers
    for l in reversed(range(params.config.n_dec_layers)):
        ln1c, selfc, ln2c, crossc, ln3c, ffnc = layer_caches[l]
        df_in = ffn_backward(params, dh, ffnc, grads)
        dh3, dg, db = layer_norm_backward(df_in, ln3c)
        g[f"dec.{l}.ln3.g"] += dg
        g[f"dec.{l}.ln3.b"] += db
        dh += dh3
        dq, dkv_in, cross_dkv[l] = attention_backward(params, dh, crossc, grads)
        dmem = dkv_in if dmem is None else np.add(dmem, dkv_in, out=dmem)
        dc_in, dg, db = layer_norm_backward(dq, ln2c)
        g[f"dec.{l}.ln2.g"] += dg
        g[f"dec.{l}.ln2.b"] += db
        dh += dc_in
        dq, dkv_in, _ = attention_backward(params, dh, selfc, grads)
        dq += dkv_in
        da_in, dg, db = layer_norm_backward(dq, ln1c)
        g[f"dec.{l}.ln1.g"] += dg
        g[f"dec.{l}.ln1.b"] += db
        dh += da_in
    dkv = np.concatenate(cross_dkv, axis=1)
    grads.blocks["dec.cross_attn.wkv"] += _rows(mem).T @ dkv
    grads.blocks["dec.cross_attn.bkv"] += np.add.reduce(dkv, axis=0)
    _embed_backward(params, EMBED, y_in, dh, grads)
    return dmem


def forward_full(params: Parameters, x, y_in, path, x_len=None):
    """Encoder + decoder over a padded batch.

    ``x`` holds (B, n) source ids without the end marker, and ``x_len``
    each row's real length (default: the full width).  ``y_in`` and
    ``path`` are (B, m); ``path`` holds z_t in real source tokens (1..|x|)
    per target position, then 0 on padded positions (see
    ``path_visibility``); the marker mapping is applied here.  Ids are
    checked as `check_ids` says.  Returns (logprobs (B, m, V), cache).
    """
    x, y_in = np.asarray(x), np.asarray(y_in)
    if x.ndim != 2 or y_in.ndim != 2 or x.size == 0 or y_in.size == 0:
        raise ValueError(f"need non-empty (B, n) ids, not shapes {x.shape} and {y_in.shape}")
    path = np.asarray(path, dtype=np.int64)
    x_len = np.full(len(x), x.shape[1]) if x_len is None else np.asarray(x_len, dtype=np.int64)
    if path.shape != y_in.shape or len(y_in) != len(x) or x_len.shape != (len(x),):
        raise ValueError(f"shapes disagree: x {x.shape}, x_len {x_len.shape}, "
                         f"y_in {y_in.shape}, path {path.shape}")
    if np.any(x_len < 1) or np.any(x_len > x.shape[1]):
        raise ValueError("source lengths must lie in [1, width]")
    visible = path_visibility(path, x_len)
    mem, enc_cache = encoder_forward(params, with_source_markers(x, x_len))
    logp, dec_cache = decoder_forward(params, mem, y_in, visible)
    return logp, (enc_cache, dec_cache)


def backward_full(params: Parameters, cache, dlogp: np.ndarray,
                  grads: Parameters | None = None) -> Parameters:
    """Add the gradients that ``dlogp`` (shaped like forward_full's
    logprobs, zero on padded rows) implies into ``grads``, fresh
    ``zero_grads`` when None, and return it."""
    enc_cache, dec_cache = cache
    if grads is None:
        grads = zero_grads(params)
    dmem = decoder_backward(params, dec_cache, dlogp, grads)
    encoder_backward(params, enc_cache, dmem, grads)
    return grads


# ---------------------------------------------------------------------------
# incremental inference states

@dataclass(eq=False)
class _Rows:
    """Row buffers that a chain of states shares, all growing along axis
    -2, and ``filled``: the length of the newest state written into them,
    the only one that may append in place."""

    arrays: tuple[np.ndarray, ...]
    filled: int


def _empty_rows(*shapes: tuple[int, ...]) -> _Rows:
    """Zero-capacity buffers; each shape omits the row axis, second last."""
    return _Rows(tuple(np.empty(s[:-1] + (0, s[-1])) for s in shapes), 0)


def _writable_rows(rows: _Rows, length: int, extra: int) -> _Rows:
    """Buffers where the state holding rows [0, length) of ``rows`` may
    write ``extra`` rows after them: ``rows`` itself when that state is
    the newest of its chain and capacity lasts, else a fresh copy of its
    rows with room for at least as many again."""
    need = length + extra
    if rows.filled == length and need <= rows.arrays[0].shape[-2]:
        return rows
    cap = max(need, 2 * length, 8)
    arrays = []
    for a in rows.arrays:
        b = np.empty(a.shape[:-2] + (cap, a.shape[-1]))
        b[..., :length, :] = a[..., :length, :]
        arrays.append(b)
    return _Rows(tuple(arrays), length)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EncoderState:
    """Grows block by block; rows already encoded are final.

    Each row is normalized and projected once, in the call that adds it,
    into the buffers ``rows`` holds: every encoder layer's self-attention
    keys and values, (n_enc, 2, H, capacity, d_head); the normed encoder
    output, (capacity, d), of which ``memory`` is a read-only view; and
    the memory projected into every decoder layer's cross-attention keys
    and values, (n_dec, 2, H, capacity, d_head).

    The buffers belong to a chain of states, and a state reads only its
    first ``n_tokens`` rows, which never change.  Extending the newest
    state of a chain writes the new rows in place (capacity doubles when
    it runs out); extending any older state first copies its rows into
    fresh buffers.  Every state therefore stays immutable as callers see
    it.  Extending one state from two threads at once is unsupported.
    """

    rows: _Rows
    n_tokens: int

    @property
    def memory(self) -> np.ndarray:
        return _read_only(self.rows.arrays[1][: self.n_tokens])


def _empty_encoder_state(params: Parameters) -> EncoderState:
    cfg = params.config
    heads = (cfg.n_heads, cfg.head_dim)
    return EncoderState(_empty_rows((cfg.n_enc_layers, 2) + heads, (cfg.d_model,),
                                    (cfg.n_dec_layers, 2) + heads), 0)


# the tensors a streaming layer reads, in the order encode_prefix and
# decode_step unpack them, and the blocks (`storage_groups`) its
# self-attention projects with; the cross-attention keys/values of every
# decoder layer are projected from the memory once, when encode_prefix adds
# its rows ("dec.cross_attn.wkv")
_ENC_LAYER = ("ln1.g", "ln1.b", "attn.wo", "attn.bo", "ln2.g", "ln2.b",
              "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")
_DEC_LAYER = ("ln1.g", "ln1.b", "self_attn.wo", "self_attn.bo", "ln2.g", "ln2.b",
              "cross_attn.wq", "cross_attn.bq", "cross_attn.wo", "cross_attn.bo",
              "ln3.g", "ln3.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")
_ENC_QKV = ("attn.wqkv", "attn.bqkv")
_DEC_QKV = ("self_attn.wqkv", "self_attn.bqkv")


@lru_cache(maxsize=None)
def _layer_keys(stack: str, n_layers: int, parts: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """Tensor names of ``parts`` for each layer of a stack.  Only names are
    cached, never arrays: training edits tensors in place, and callers
    swap whole `Parameters`."""
    return tuple(tuple(f"{stack}.{l}.{p}" for p in parts) for l in range(n_layers))


def encode_prefix(params: Parameters, new_tokens: Sequence[int],
                  state: EncoderState | None = None) -> EncoderState:
    """Extend (or start) an encoder state with a block of source tokens.

    Returns a new state; ``state`` is unchanged.  Only the new rows are
    computed: they attend over the cached keys/values of earlier rows, and
    a block's causal mask covers its own key columns only.  Encoding a
    sequence in any block split yields the same rows as encoding it in one
    call up to rounding: a block's products are matrix-matrix where one
    row's are vector-matrix, so rows can differ in the last bits (by at
    most 1e-12 in tests; about 4e-15 on the benchmark fixture).  One new
    token travels as a (d,) row, so every product is a vector-matrix one.
    Ids are checked as `check_ids` says, and a bad one raises ValueError
    before any buffer is written.
    """
    cfg = params.config
    t, blocks = params.tensors, params.blocks
    n_heads, dh, d = cfg.n_heads, cfg.head_dim, cfg.d_model
    new_ids = check_ids(new_tokens, cfg.vocab_size, "source")
    if new_ids.ndim != 1 or len(new_ids) == 0:
        raise ValueError("need at least one new token")
    if state is None:
        state = _empty_encoder_state(params)
    m = len(new_ids)
    z0 = state.n_tokens
    z = z0 + m

    rows = _writable_rows(state.rows, z0, m)
    enc_kv, memory, cross_kv = rows.arrays
    # one new row may see every key: its causal mask is all zeros
    if m == 1:
        h, mask = _embed(params, EMBED, new_ids[0], z0), None
    else:
        h, mask = _embed(params, EMBED, new_ids, z0), causal_mask(m, m)
    layers = zip(_layer_keys("enc", cfg.n_enc_layers, _ENC_LAYER),
                 _layer_keys("enc", cfg.n_enc_layers, _ENC_QKV))
    for l, (keys, (wqkv, bqkv)) in enumerate(layers):
        g1, b1, wo, bo, g2, b2, w1, fb1, w2, fb2 = [t[k] for k in keys]
        qkv = np.dot(_norm(h, g1, b1), blocks[wqkv])
        qkv += blocks[bqkv]
        kv = enc_kv[l, :, :, :z]
        kv[:, :, z0:] = qkv[..., d:].reshape(-1, 2, n_heads, dh).transpose(1, 2, 0, 3)
        h += _attend_precomputed(qkv[..., :d], wo, bo, kv[0], kv[1], mask)
        h += _ffn_out(_norm(h, g2, b2), w1, fb1, w2, fb2)
    mem_rows = _norm(h, t["enc.final_ln.g"], t["enc.final_ln.b"])
    memory[z0:z] = mem_rows
    ckv = np.dot(mem_rows, blocks["dec.cross_attn.wkv"])
    ckv += blocks["dec.cross_attn.bkv"]
    cross_kv[..., z0:z, :] = (ckv.reshape(-1, cfg.n_dec_layers, 2, n_heads, dh)
                              .transpose(1, 2, 3, 0, 4))
    rows.filled = z
    return EncoderState(rows, z)


@dataclass(frozen=True)
class DecoderState:
    """Self-attention keys and values of every decoder layer for all
    target positions so far, (n_dec, 2, H, capacity, d_head) in ``rows``;
    ``self_k[l]`` is layer l's keys as a read-only (H, step, d_head)
    view.  The buffer is owned, grown and copied as `EncoderState`
    describes, so replaying a step from an older state copies its rows
    first."""

    rows: _Rows
    step: int

    @property
    def self_k(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(self.rows.arrays[0][:, 0, :, : self.step]))


def empty_decoder_state(params: Parameters) -> DecoderState:
    cfg = params.config
    return DecoderState(_empty_rows((cfg.n_dec_layers, 2, cfg.n_heads, cfg.head_dim)), 0)


def decode_step(params: Parameters, enc_state: EncoderState,
                dec_state: DecoderState | None, prev_token: int, visible: int):
    """One greedy-decoding step.

    ``visible`` counts encoder rows (marker included when exposed) and
    must be in [1, enc_state.n_tokens]; ``prev_token`` must be a target
    id, an int or numpy integer (not a bool, as `check_ids` says) in
    [0, vocab_size).  Either check raises ValueError before
    any buffer is written.  The cached cross-attention keys and values
    are sliced to that prefix before any computation, so the result is
    bitwise identical no matter what lies beyond.  Returns (logprobs (V,),
    new DecoderState); inputs are not mutated.
    """
    cfg = params.config
    t, blocks = params.tensors, params.blocks
    n_heads, dh, d = cfg.n_heads, cfg.head_dim, cfg.d_model
    if not 1 <= visible <= enc_state.n_tokens:
        raise ValueError(f"visible={visible} outside [1, {enc_state.n_tokens}]")
    if (not isinstance(prev_token, (int, np.integer)) or isinstance(prev_token, bool)
            or not 0 <= prev_token < cfg.vocab_size):
        raise ValueError(f"target id {prev_token} outside the integers [0, {cfg.vocab_size})")
    if dec_state is None:
        dec_state = empty_decoder_state(params)
    step = dec_state.step

    h = _embed(params, EMBED, prev_token, step)
    rows = _writable_rows(dec_state.rows, step, 1)
    self_kv = rows.arrays[0][:, :, :, : step + 1]
    cross_kv = enc_state.rows.arrays[2][:, :, :, :visible]
    layers = zip(_layer_keys("dec", cfg.n_dec_layers, _DEC_LAYER),
                 _layer_keys("dec", cfg.n_dec_layers, _DEC_QKV))
    for l, (keys, (wqkv, bqkv)) in enumerate(layers):
        (g1, b1, wo, bo, g2, b2, cwq, cbq, cwo, cbo,
         g3, b3, w1, fb1, w2, fb2) = [t[k] for k in keys]
        qkv = np.dot(_norm(h, g1, b1), blocks[wqkv])
        qkv += blocks[bqkv]
        kv = self_kv[l]
        kv[:, :, step] = qkv[d:].reshape(2, n_heads, dh)
        h += _attend_precomputed(qkv[:d], wo, bo, kv[0], kv[1])
        q = np.dot(_norm(h, g2, b2), cwq)
        q += cbq
        h += _attend_precomputed(q, cwo, cbo, cross_kv[l, 0], cross_kv[l, 1])
        h += _ffn_out(_norm(h, g3, b3), w1, fb1, w2, fb2)
    hf = _norm(h, t["dec.final_ln.g"], t["dec.final_ln.b"])
    logp = log_softmax(np.dot(hf, t[EMBED].T))
    rows.filled = step + 1
    return logp, DecoderState(rows, step + 1)


def _norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`layer_norm`'s output alone, scaled and shifted in place, for the
    streaming passes (no backward cache)."""
    y, _ = _standardize(x)
    y *= g
    y += b
    return y


def _attend_precomputed(q: np.ndarray, wo, bo, kh: np.ndarray, vh: np.ndarray,
                        mask: np.ndarray | None = None) -> np.ndarray:
    """Attention of projected queries q, (d,) for one row or (m, d), over
    keys and values already projected and split into heads, (H, n, d_head)
    (the streaming caches), through the output projection; the output has
    q's shape.  ``mask`` is as `_attend` takes it; without one every query
    sees every key.  Heads are split and merged inline around `_attend`:
    one sentence needs no batch axis, and a (d,) row needs one reshape
    each way."""
    n_heads, _, dh = kh.shape
    if q.ndim == 1:
        ah = _attend(q.reshape(n_heads, 1, dh), kh, mask) @ vh
        a = ah.reshape(q.shape)
    else:
        ah = _attend(q.reshape(-1, n_heads, dh).swapaxes(0, 1), kh, mask) @ vh
        a = ah.swapaxes(0, 1).reshape(q.shape)
    out = np.dot(a, wo)
    out += bo
    return out


def _ffn_out(x: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """`ffn`'s output alone, for the streaming passes (no backward cache)."""
    h = np.dot(x, w1)
    h += b1
    np.maximum(h, 0.0, out=h)
    out = np.dot(h, w2)
    out += b2
    return out


# ---------------------------------------------------------------------------
# checkpoint I/O (bit-exact)

def save_checkpoint(params: Parameters, path) -> None:
    """Binary checkpoint: magic, manifest length (u64 LE), JSON manifest
    (names, shapes, byte offsets, config), then flat little-endian float64
    payload.  Loading restores tensors bit-exactly."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in params.tensors.items():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps({"config": params.config.to_dict(), "tensors": entries}).encode()
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(len(manifest).to_bytes(8, "little"))
        f.write(manifest)
        for b in blobs:
            f.write(b)


def load_checkpoint(path) -> Parameters:
    """Read a checkpoint written by ``save_checkpoint``.

    The file is untrusted: its manifest is checked against the tensor
    table its config implies (names, shapes, payload bounds) before any
    tensor is built, and every defect raises ValueError.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ValueError(f"{path} is not a checkpoint (bad magic)")
    n = int.from_bytes(data[8:16], "little")
    if 16 + n > len(data):
        raise ValueError(f"{path}: manifest length {n} runs past the end of the file")
    try:
        manifest = json.loads(data[16 : 16 + n].decode())
    except ValueError as e:
        raise ValueError(f"{path}: unreadable manifest ({e})") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise ValueError(f"{path}: manifest needs a config and a tensor list")
    config = ModelConfig.from_dict(manifest.get("config"))
    payload = memoryview(data)[16 + n :]

    layout: dict[str, tuple] = {}
    for e in manifest["tensors"]:
        if not (isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list) and type(e.get("offset")) is int):
            raise ValueError(f"{path}: malformed tensor entry {str(e)[:80]}")
        if e["name"] in layout:
            raise ValueError(f"{path}: tensor {e['name']} listed twice")
        layout[e["name"]] = (tuple(e["shape"]), e["offset"])
    expect = parameter_shapes(config)
    if set(layout) != set(expect):
        raise ValueError(f"checkpoint tensor names do not match config: "
                         f"{sorted(set(expect) ^ set(layout))}")
    for name, shape in expect.items():
        got, offset = layout[name]
        if got != shape:
            raise ValueError(f"tensor {name} has shape {got}, expected {shape}")
        if not 0 <= offset <= len(payload) - 8 * math.prod(shape):
            raise ValueError(f"tensor {name} lies outside the payload")

    tensors = {}
    for name, shape in expect.items():
        arr = np.frombuffer(payload, dtype="<f8", count=math.prod(shape), offset=layout[name][1])
        tensors[name] = arr.reshape(shape)
    return Parameters(config, tensors)
