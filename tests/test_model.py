import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from simumt import model as M
from simumt.vocab import BOS, EOS


def small_params(seed=0, **kw):
    cfg = M.ModelConfig(vocab_size=16, d_model=16,
                        n_heads=2, n_enc_layers=2, n_dec_layers=2, d_ffn=24, **kw)
    return M.init_parameters(cfg, seed=seed)


def rand_sentence(rng, n, v=16):
    return [int(t) for t in rng.integers(4, v, size=n)]


def test_config_validation():
    with pytest.raises(ValueError):
        M.ModelConfig(vocab_size=16, d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        M.ModelConfig(vocab_size=4)
    with pytest.raises(ValueError):
        M.ModelConfig(vocab_size=16, n_enc_layers=0)


def test_init_deterministic_and_shaped():
    a = small_params(seed=3)
    b = small_params(seed=3)
    c = small_params(seed=4)
    assert set(a.tensors) == set(b.tensors)
    assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)
    assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)
    assert a.tensors["embed"].shape == (16, 16)
    assert a.tensors["enc.0.ffn.w1"].shape == (16, 24)
    assert np.all(a.tensors["enc.0.ln1.g"] == 1.0)
    assert np.all(a.tensors["enc.0.attn.bq"] == 0.0)
    shapes = M.parameter_shapes(a.config)
    assert list(shapes) == list(a.tensors)
    assert all(a.tensors[k].shape == shape for k, shape in shapes.items())


def test_init_parameters_draws_are_pinned():
    # digest of names, shapes and float64 bytes in creation order; a change
    # means seeded models (and checkpoint layouts) differ from before
    params = M.init_parameters(M.desk_config(12), seed=0)
    h = hashlib.sha256()
    for name, arr in params.tensors.items():
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    assert h.hexdigest() == \
        "675063c4caac0c010d9650ec074472fd6795aedff39ac612162e9b2d4f05b8c3"


def test_tying_is_structural():
    # one tensor is the source embedding, the target embedding and the
    # output projection: no other tensor has an axis the vocabulary's size
    params = M.init_parameters(M.desk_config(13), seed=0)
    assert [name for name, t in params.tensors.items() if 13 in t.shape] == ["embed"]
    assert params.tensors["embed"].shape == (13, params.config.d_model)


def test_sinusoid_rows():
    rows = M.sinusoid_rows(0, 3, 8)
    assert np.array_equal(rows[0, 0::2], np.zeros(4))
    assert np.array_equal(rows[0, 1::2], np.ones(4))
    assert rows[1, 0] == math.sin(1.0)
    assert rows[2, 1] == math.cos(2.0)
    # offset slicing consistency: rows computed at an offset match
    assert np.array_equal(M.sinusoid_rows(5, 2, 8), M.sinusoid_rows(0, 10, 8)[5:7])


def test_layer_norm_is_bitwise_the_two_call_form():
    rng = np.random.default_rng(7)
    for shape in ((1, 64), (37, 64), (5, 16), (3, 2, 24)):
        x = rng.normal(size=shape) * rng.uniform(0.1, 100.0) + rng.uniform(-50, 50)
        g, b = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        for xs in (x, np.asfortranarray(x)):
            inv = 1.0 / np.sqrt(xs.var(axis=-1, keepdims=True) + 1e-5)
            xhat = (xs - xs.mean(axis=-1, keepdims=True)) * inv
            y, (xh, iv, _) = M.layer_norm(xs, g, b)
            assert np.array_equal(y, xhat * g + b)
            assert np.array_equal(xh, xhat) and np.array_equal(iv, inv)
    # a (64,) row, as the streaming step passes it, takes scalar statistics:
    # bitwise the (1, 64) call and the two-call form
    for _ in range(50):
        x = rng.normal(size=64) * rng.uniform(0.1, 100.0) + rng.uniform(-50, 50)
        g, b = rng.normal(size=64), rng.normal(size=64)
        inv = 1.0 / np.sqrt(x.var() + 1e-5)
        xhat = (x - x.mean()) * inv
        y, (xh, iv, _) = M.layer_norm(x, g, b)
        y2, (xh2, iv2, _) = M.layer_norm(x[None], g, b)
        assert y.shape == xh.shape == (64,)
        assert np.array_equal(y, y2[0]) and np.array_equal(xh, xh2[0]) and iv == iv2[0, 0]
        assert np.array_equal(y, xhat * g + b) and np.array_equal(xh, xhat) and iv == inv


def test_forward_full_is_normalized():
    params = small_params()
    rng = np.random.default_rng(0)
    x = rand_sentence(rng, 6)
    y = rand_sentence(rng, 4) + [EOS]
    path = [min(2 + t, len(x)) for t in range(len(y))]
    logp, _ = M.forward_full(params, [x], [[BOS] + y[:-1]], [path])
    assert logp.shape == (1, len(y), 16)
    assert np.allclose(np.exp(logp).sum(axis=-1), 1.0, atol=1e-12)


def test_path_validation():
    params = small_params()
    x, y = [[4, 5, 6]], [7, 8, EOS]
    y_in = [[BOS] + y[:-1]]
    with pytest.raises(ValueError):
        M.forward_full(params, x, y_in, [[1, 2]])       # wrong length
    with pytest.raises(ValueError):
        M.forward_full(params, x, y_in, [[2, 1, 3]])    # decreasing
    with pytest.raises(ValueError):
        M.forward_full(params, x, y_in, [[1, 2, 4]])    # beyond |x|
    with pytest.raises(ValueError):
        M.forward_full(params, x, y_in, [[0, 1, 2]])    # below 1


def test_teacher_forced_path_takes_batches_only():
    # one sentence is a batch of one; its 1-D ids are refused, not wrapped
    params = small_params()
    x, y_in, path = [4, 5, 6], [BOS, 7, 8], [1, 2, 3]
    with pytest.raises(ValueError, match=r"\(B, n\)"):
        M.encoder_forward(params, x + [EOS])
    mem, _ = M.encoder_forward(params, [x + [EOS]])
    with pytest.raises(ValueError, match=r"\(B, n\)"):
        M.decoder_forward(params, mem, y_in, [path])
    with pytest.raises(ValueError, match=r"\(B, n\)"):
        M.forward_full(params, x, y_in, path)
    with pytest.raises(ValueError, match=r"\(B, n\)"):
        M.forward_full(params, [x], y_in, [path])
    logp, _ = M.forward_full(params, [x], [y_in], [path])
    assert logp.shape == (1, 3, 16)


@pytest.mark.parametrize("where,ids,match", [
    ("source", [[4, -1, 6]], "source id -1 outside"),  # used to embed the last row
    ("source", [[4, 16, 6]], "source id 16 outside"),
    ("source", [[4.5, 6.0, 7.0]], "source ids must be integers"),  # used to read 4
    ("target", [[BOS, -1, 8]], "target id -1 outside"),
    ("target", [[BOS, 7.5, 8]], "target ids must be integers"),
])
def test_teacher_forced_path_refuses_bad_ids(where, ids, match):
    params = small_params()
    x, y_in = [[4, 5, 6]], [[BOS, 7, 8]]
    if where == "source":
        x = ids
    else:
        y_in = ids
    with pytest.raises(ValueError, match=match):
        M.forward_full(params, x, y_in, [[1, 2, 3]])
    if where == "source":
        with pytest.raises(ValueError, match=match):
            M.encoder_forward(params, [ids[0] + [EOS]])
    else:
        mem, _ = M.encoder_forward(params, [[4, 5, 6, EOS]])
        with pytest.raises(ValueError, match=match):
            M.decoder_forward(params, mem, y_in, [[1, 2, 4]])


def test_check_ids_is_the_one_id_rule():
    for ok in ([0, 15], np.array([[3, 4]], dtype=np.int32), np.uint8(7), []):
        got = M.check_ids(ok, 16, "source")
        assert got.dtype.kind in "iu" and np.array_equal(got, np.asarray(ok))
    for bad, match in (([0, 16], "source id 16 outside"), ([-3], "source id -3 outside"),
                       ([2.0], "integers"), ([[1, 2.7]], "integers"), ([True], "integers"),
                       (["4"], "integers")):
        with pytest.raises(ValueError, match=match):
            M.check_ids(bad, 16, "source")


def random_batch(rng, n_sent, max_src=9, max_tgt=8):
    """Sentences with random wait-style paths: (sources, targets, paths)."""
    xs, ys, paths = [], [], []
    for _ in range(n_sent):
        n, m = int(rng.integers(1, max_src + 1)), int(rng.integers(1, max_tgt + 1))
        xs.append(rand_sentence(rng, n))
        ys.append([BOS] + rand_sentence(rng, m - 1))
        paths.append(sorted(int(z) for z in rng.integers(1, n + 1, size=m)))
    return xs, ys, paths


def padded(xs, ys, paths, fill=None):
    """The batch as forward_full takes it; ``fill`` replaces PAD."""
    x, x_len = M.pad_batch(xs)
    y_in, y_len = M.pad_batch(ys)
    path, _ = M.pad_batch(paths)
    if fill is not None:
        x[np.arange(x.shape[1]) >= x_len[:, None]] = fill
        y_in[np.arange(y_in.shape[1]) >= y_len[:, None]] = fill
    return x, x_len, y_in, path


def test_pad_batch_and_path_visibility():
    ids, lens = M.pad_batch([[4, 5, 6], [7]])
    assert ids.tolist() == [[4, 5, 6], [7, 0, 0]] and lens.tolist() == [3, 1]
    for bad in ([[4, 5.5], [7]], [[4], [True, "5"]]):     # 5.5 used to be stored as 5
        with pytest.raises(ValueError, match="ids must be integers"):
            M.pad_batch(bad)
    ids[1, 2] = 9
    x_model = M.with_source_markers(ids, lens)
    assert x_model.tolist() == [[4, 5, 6, EOS], [7, EOS, 9, 0]]
    # the marker shows once z reaches |x|; padded rows see encoder row 0
    vis = M.path_visibility(np.array([[1, 2, 3, 3], [1, 0, 0, 0]]), lens)
    assert vis.tolist() == [[1, 2, 4, 4], [2, 1, 1, 1]]
    for bad in ([[1, 2, 3, 0], [0, 1, 0, 0]],      # padding before a real position
                [[1, 2, 3, 3], [0, 0, 0, 0]],      # no real position
                [[2, 1, 3, 3], [1, 0, 0, 0]],      # decreasing
                [[1, 2, 4, 4], [1, 0, 0, 0]],      # past |x|
                [[1, 2, 3, 3], [1, -1, 0, 0]]):
        with pytest.raises(ValueError):
            M.path_visibility(np.array(bad), lens)


def test_batched_forward_backward_matches_each_sentence():
    params = small_params(seed=4)
    rng = np.random.default_rng(8)
    xs, ys, paths = random_batch(rng, 32)
    x, x_len, y_in, path = padded(xs, ys, paths)
    logp, cache = M.forward_full(params, x, y_in, path, x_len)
    assert logp.shape == (32, y_in.shape[1], 16)
    dlogp = np.zeros_like(logp)
    want = M.zero_grads(params)
    for b in range(32):
        m = len(ys[b])
        one, one_cache = M.forward_full(params, [xs[b]], [ys[b]], [paths[b]])
        assert np.abs(logp[b, :m] - one[0]).max() < 1e-12
        dlogp[b, :m] = rng.normal(size=one[0].shape)
        want.vector += M.backward_full(params, one_cache, dlogp[b : b + 1, :m]).vector
    got = M.backward_full(params, cache, dlogp)
    scale = np.abs(want.vector).max()
    for name, g in want.tensors.items():
        assert np.abs(got.tensors[name] - g).max() <= 1e-12 * scale, name


def test_padding_content_is_inert_bitwise():
    # any token id at padded positions leaves real rows and grads unchanged
    params = small_params(seed=6)
    rng = np.random.default_rng(9)
    xs, ys, paths = random_batch(rng, 12)
    runs = []
    for fill in (None, 11):
        x, x_len, y_in, path = padded(xs, ys, paths, fill)
        logp, cache = M.forward_full(params, x, y_in, path, x_len)
        real = path > 0
        dlogp = np.where(real[..., None], np.cos(np.arange(logp.size)).reshape(logp.shape), 0.0)
        runs.append((logp[real], M.backward_full(params, cache, dlogp)))
    (lp0, g0), (lp1, g1) = runs
    assert np.array_equal(lp0, lp1)
    assert np.array_equal(g0.vector, g1.vector)


def row_mapped_case(params, rng):
    """Three padded sentences encoded once, and seven path rows over them
    with repeats: (mem, y_in, x_len, y_len, rows, visible)."""
    xs, ys, _ = random_batch(rng, 3)
    x, x_len, y_in, _ = padded(xs, ys, [[1]] * 3)
    y_len = np.array([len(y) for y in ys])
    assert len(set(y_len.tolist())) > 1 and len(set(x_len.tolist())) > 1
    mem, _ = M.encoder_forward(params, M.with_source_markers(x, x_len))
    rows = np.array([0, 2, 2, 1, 0, 2, 1])
    path = np.zeros((len(rows), y_in.shape[1]), dtype=np.int64)
    for r, s in enumerate(rows):
        path[r, : y_len[s]] = np.sort(rng.integers(1, x_len[s] + 1, size=y_len[s]))
    return mem, y_in, x_len, y_len, rows, M.path_visibility(path, x_len[rows])


def test_row_mapped_decoder_equals_a_row_per_path_bitwise():
    params = small_params(seed=7)
    rng = np.random.default_rng(10)
    for _ in range(5):
        mem, y_in, _, y_len, rows, visible = row_mapped_case(params, rng)
        got, _ = M.decoder_forward(params, mem, y_in, visible, rows)
        want, _ = M.decoder_forward(params, mem[rows], y_in[rows], visible)
        assert got.shape == want.shape == (len(rows), y_in.shape[1], 16)
        real = np.arange(y_in.shape[1]) < y_len[rows][:, None]
        assert np.array_equal(got[real], want[real])


def _arrays_in(obj):
    """Every ndarray reachable through tuples and lists from ``obj``."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays_in(item)]
    return []


def test_decoder_backward_refuses_a_row_mapped_cache():
    params = small_params()
    mem, y_in, _, _, rows, visible = row_mapped_case(params, np.random.default_rng(11))
    logp, cache = M.decoder_forward(params, mem, y_in, visible, rows)
    # a row-mapped pass keeps no activations: its cache holds the row map alone
    kept = _arrays_in(cache)
    assert len(kept) == 1 and np.array_equal(kept[0], rows)
    with pytest.raises(ValueError, match="forward-only"):
        M.decoder_backward(params, cache, np.ones_like(logp), M.zero_grads(params))
    # a plain pass keeps every layer's activations for its backward
    _, plain = M.decoder_forward(params, mem[rows], y_in[rows], visible)
    assert len(_arrays_in(plain)) > 10 * params.config.n_dec_layers


@pytest.mark.parametrize("config", [small_params().config, M.desk_config(16)])
def test_batched_primitives_equal_their_two_temporary_forms_bitwise(config):
    # attention and ffn add each bias into the array the product just made;
    # that is bitwise the `x @ w + b` it replaces (layer_norm's affine step:
    # test_layer_norm_is_bitwise_the_two_call_form)
    params = M.init_parameters(config, seed=5)
    rng = np.random.default_rng(8)
    params.vector += 0.1 * rng.normal(size=params.vector.shape)    # nonzero biases
    t, blocks = params.tensors, params.blocks
    d, h, m, n = config.d_model, config.n_heads, 7, 9
    for batch in ((1,), (3,)):
        x = rng.normal(size=batch + (m, d))
        prefix = "enc.0.attn"
        out, (_, _, qh, kh, vh, _, a, _) = M.attention(params, prefix, x, M.causal_mask(m, m))
        qkv = x @ blocks[f"{prefix}.wqkv"] + blocks[f"{prefix}.bqkv"]
        for i, heads in enumerate((qh, kh, vh)):
            assert np.array_equal(heads, M._split_heads(qkv[..., i * d : (i + 1) * d], h))
        assert np.array_equal(out, a @ t[f"{prefix}.wo"] + t[f"{prefix}.bo"])

        prefix = "dec.1.cross_attn"
        kv = separate_kv(params, prefix, rng.normal(size=batch + (n, d)))
        mask = M.visibility_mask(rng.integers(1, n + 1, size=batch + (m,)), n)
        out, (_, _, qh, _, _, _, a, _) = M.attention(params, prefix, x, mask, kv)
        assert np.array_equal(qh, M._split_heads(x @ t[f"{prefix}.wq"] + t[f"{prefix}.bq"], h))
        assert np.array_equal(out, a @ t[f"{prefix}.wo"] + t[f"{prefix}.bo"])

        prefix = "dec.0.ffn"
        out, (x_kept, r, kept_prefix) = M.ffn(params, prefix, x)
        assert x_kept is x and kept_prefix == prefix
        assert np.array_equal(r, np.maximum(x @ t[f"{prefix}.w1"] + t[f"{prefix}.b1"], 0.0))
        assert np.array_equal(out, r @ t[f"{prefix}.w2"] + t[f"{prefix}.b2"])


def test_backward_full_adds_into_given_grads():
    params = small_params()
    x, y, path = [[4, 5, 6]], [[BOS, 7, 8]], [[1, 2, 3]]
    logp, cache = M.forward_full(params, x, y, path)
    dlogp = np.ones_like(logp)
    once = M.backward_full(params, cache, dlogp)
    acc = M.backward_full(params, cache, dlogp, M.backward_full(params, cache, dlogp))
    assert acc.tensors.keys() == once.tensors.keys()
    assert np.allclose(acc.vector, 2 * once.vector, rtol=1e-12, atol=1e-15)


def test_encode_prefix_blocks_match_one_shot():
    # the docstring's bound: any block split gives every cached row (memory,
    # encoder self-attention K/V, cross-attention K/V) within 1e-12
    params = small_params()
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        x = rng.integers(4, 16, size=n)
        one = M.encode_prefix(params, x)
        st = None
        i = 0
        while i < n:
            j = min(n, i + int(rng.choice([1, 1, 2, 3, 7])))
            st = M.encode_prefix(params, x[i:j], st)
            i = j
        assert st.n_tokens == one.n_tokens == n
        assert np.abs(st.memory - one.memory).max() < 1e-12
        for (a,), (b,) in zip(_state_arrays(st).values(), _state_arrays(one).values()):
            assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("config", [small_params().config, M.desk_config(16)])
def test_fused_products_equal_separate_products_bitwise(config):
    # the module docstring's claim: the streaming step's fused q|k|v and
    # cross k|v products change no bit, and neither do the strided views
    # the training path multiplies by
    params = M.init_parameters(config, seed=2)
    rng = np.random.default_rng(3)
    d = config.d_model
    for shape in ((d,), (1, d), (5, d), (37, d)):
        x = rng.normal(size=shape)
        for block, names in M.storage_groups(config).items():
            if params.blocks[block].ndim == 1:
                continue                                    # biases add elementwise
            fused, at = x @ params.blocks[block], 0
            for name in names:
                w = params.tensors[name]
                alone = x @ np.ascontiguousarray(w)
                assert np.array_equal(fused[..., at : at + w.shape[1]], alone), name
                assert np.array_equal(x @ w, alone), name
                at += w.shape[1]


def separate_kv(params, prefix, rows):
    """Key and value heads of ``rows`` through the separate wk/bk and
    wv/bv tensors, sharing no product with the fused storage blocks."""
    t = params.tensors
    return tuple(M._split_heads(rows @ t[f"{prefix}.w{w}"] + t[f"{prefix}.b{w}"],
                                params.config.n_heads) for w in "kv")


@pytest.mark.parametrize("config", [small_params().config, M.desk_config(16)])
def test_self_attention_through_the_block_equals_separate_projections(config):
    # a self-attention projects q|k|v with one product by its block; given
    # key and value heads from the per-tensor wk/bk and wv/bv instead, the
    # same attention agrees
    params = M.init_parameters(config, seed=4)
    rng = np.random.default_rng(6)
    params.vector += 0.1 * rng.normal(size=params.vector.shape)    # nonzero biases
    d, m = config.d_model, 7
    for shape in ((1, m, d), (3, m, d)):
        x = rng.normal(size=shape)
        for mask in (None, M.causal_mask(m, m)):
            for prefix in ("enc.0.attn", "dec.1.self_attn"):
                got, _ = M.attention(params, prefix, x, mask)
                want, _ = M.attention(params, prefix, x, mask, separate_kv(params, prefix, x))
                assert got.shape == want.shape == shape
                assert np.abs(got - want).max() < 1e-12


def test_encode_prefix_does_not_mutate_input_state():
    params = small_params()
    st1 = M.encode_prefix(params, [4, 5, 6])
    mem1 = st1.memory.copy()
    st2 = M.encode_prefix(params, [7, 8], st1)
    assert st1.n_tokens == 3
    assert np.array_equal(st1.memory, mem1)
    assert np.array_equal(st2.memory[:3], mem1)  # old rows extended, not changed


def _state_arrays(st):
    """Every cache an EncoderState holds, sliced to its rows, by buffer
    index."""
    return {i: [a[..., : st.n_tokens, :]] for i, a in enumerate(st.rows.arrays)}


def test_extending_a_state_twice_leaves_the_parent_unchanged():
    params = small_params()
    rng = np.random.default_rng(5)
    head = rand_sentence(rng, 7)
    parent = M.encode_prefix(params, head)
    before = {k: [a.copy() for a in v] for k, v in _state_arrays(parent).items()}
    for tail in (rand_sentence(rng, 5), rand_sentence(rng, 3)):
        child = M.encode_prefix(params, tail, parent)
        fresh = M.encode_prefix(params, head + tail)
        assert child.n_tokens == fresh.n_tokens == len(head) + len(tail)
        got, want = _state_arrays(child), _state_arrays(fresh)
        for name in want:
            for a, b in zip(got[name], want[name], strict=True):
                assert a.shape == b.shape and np.abs(a - b).max() < 1e-12, name
    assert parent.n_tokens == len(head)
    for name, arrays in _state_arrays(parent).items():
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before[name], strict=True))


@pytest.mark.parametrize("name", ["dec.1.cross_attn.wk", "dec.0.cross_attn.bv"])
def test_streaming_reads_tensors_afresh_after_in_place_edits(name):
    # the streaming functions may cache tensor names, never arrays: an
    # in-place edit, the way adam_update makes one, shows in the next call,
    # and each Parameters is read for its own tensors
    params = small_params(seed=3)
    rng = np.random.default_rng(8)
    x = rand_sentence(rng, 6)

    def run(p):
        enc = M.encode_prefix(p, x[:5])
        enc = M.encode_prefix(p, x[5:], enc)            # one token: a (d,) row
        lp1, dec = M.decode_step(p, enc, None, BOS, 4)
        lp2, _ = M.decode_step(p, enc, dec, x[0], 6)
        return [a[..., :6, :].copy() for a in enc.rows.arrays] + [lp1, lp2]

    before, kept = run(params), params.copy()
    params.tensors[name] -= 0.05 * rng.normal(size=params.tensors[name].shape)
    after = run(params)
    for got, want in ((after, run(params.copy())), (run(kept), before)):
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    assert not np.array_equal(after[2], before[2])      # cross-attention K/V
    assert not np.array_equal(after[-2], before[-2])
    assert not np.array_equal(after[-1], before[-1])


def oracle_step(params, mem, history, prev, visible):
    """A decoder step written from the primitives, with no caches, as a
    batch of one over ``mem`` (1, n, d): cross-attention runs
    ``attention`` over the memory sliced to ``visible`` and self-attention
    over every earlier layer input, kept per layer in ``history``
    (appended to in place).  Keys and values come from `separate_kv`, so
    the oracle shares no product with the fused blocks."""
    t = params.tensors
    h = M._embed(params, "embed", np.array([[prev]]), len(history[0]))
    for l, rows in enumerate(history):
        a_in, _ = M.layer_norm(h, t[f"dec.{l}.ln1.g"], t[f"dec.{l}.ln1.b"])
        rows.append(a_in)
        p = f"dec.{l}.self_attn"
        kv = separate_kv(params, p, np.concatenate(rows, axis=1))
        a_out, _ = M.attention(params, p, a_in, None, kv)
        h = h + a_out
        c_in, _ = M.layer_norm(h, t[f"dec.{l}.ln2.g"], t[f"dec.{l}.ln2.b"])
        p = f"dec.{l}.cross_attn"
        c_out, _ = M.attention(params, p, c_in, None, separate_kv(params, p, mem[:, :visible]))
        h = h + c_out
        f_in, _ = M.layer_norm(h, t[f"dec.{l}.ln3.g"], t[f"dec.{l}.ln3.b"])
        f_out, _ = M.ffn(params, f"dec.{l}.ffn", f_in)
        h = h + f_out
    hf, _ = M.layer_norm(h, t["dec.final_ln.g"], t["dec.final_ln.b"])
    return M.log_softmax(hf @ t["embed"].T)[0, 0]


def test_cached_decode_matches_uncached_oracle_over_long_sources():
    params = small_params(seed=2)
    rng = np.random.default_rng(11)
    for n in (300, int(rng.integers(1, 300)), int(rng.integers(1, 40))):
        x = np.asarray(rand_sentence(rng, n), dtype=np.int64)
        mem, _ = M.encoder_forward(params, x[None])
        enc, dec, prev = None, None, BOS
        history = [[] for _ in range(params.config.n_dec_layers)]
        while enc is None or enc.n_tokens < n:
            z0 = 0 if enc is None else enc.n_tokens
            enc = M.encode_prefix(params, x[z0:z0 + int(rng.integers(1, 41))], enc)
            assert np.abs(enc.memory - mem[0, :enc.n_tokens]).max() < 1e-12
            for _ in range(int(rng.integers(1, 4))):
                visible = int(rng.integers(1, enc.n_tokens + 1))
                lp, dec = M.decode_step(params, enc, dec, prev, visible)
                want = oracle_step(params, mem, history, prev, visible)
                assert np.abs(lp - want).max() < 1e-12
                prev = int(rng.integers(4, 16))


def test_tip_extensions_grow_buffers_in_place_over_long_chains():
    params = small_params(seed=3)
    rng = np.random.default_rng(12)
    n = 1100
    x = np.asarray(rand_sentence(rng, n), dtype=np.int64)
    mem, _ = M.encoder_forward(params, x[None])
    enc, reallocations = None, 0
    for i in range(n):
        prev = enc
        enc = M.encode_prefix(params, x[i:i + 1], enc)
        if prev is None or enc.rows is not prev.rows:
            reallocations += 1
            assert prev is None or prev.rows.arrays[1].shape[0] == prev.n_tokens  # was full
    assert reallocations <= math.ceil(math.log2(n)) + 1
    assert enc.n_tokens == n and np.abs(enc.memory - mem[0]).max() < 1e-12

    dec, prev_tok = None, BOS
    history = [[] for _ in range(params.config.n_dec_layers)]
    for step in range(40):
        lp, nxt = M.decode_step(params, enc, dec, prev_tok, 1000)
        assert dec is None or nxt.rows is dec.rows or dec.rows.arrays[0].shape[-2] == step
        assert np.abs(lp - oracle_step(params, mem, history, prev_tok, 1000)).max() < 1e-12
        dec, prev_tok = nxt, int(rng.integers(4, 16))


def test_extending_an_older_state_copies_it_and_spares_the_tip():
    params = small_params()
    rng = np.random.default_rng(6)
    head, tail = rand_sentence(rng, 7), rand_sentence(rng, 3)
    parent = M.encode_prefix(params, head)
    tip = M.encode_prefix(params, tail[:1], parent)
    assert tip.rows is parent.rows                       # written in place
    tip_before = {k: [a.copy() for a in v] for k, v in _state_arrays(tip).items()}
    sibling = M.encode_prefix(params, tail, parent)      # parent is no longer the tip
    assert sibling.rows is not parent.rows
    for name, arrays in _state_arrays(tip).items():
        assert all(np.array_equal(a, b) for a, b in zip(arrays, tip_before[name], strict=True))
    got, want = _state_arrays(sibling), _state_arrays(M.encode_prefix(params, head + tail))
    for name in want:
        for a, b in zip(got[name], want[name], strict=True):
            assert a.shape == b.shape and np.abs(a - b).max() < 1e-12, name
    with pytest.raises(ValueError):
        tip.memory[0, 0] = 1.0                           # views are read-only

    _, d1 = M.decode_step(params, sibling, None, BOS, 5)
    _, d2 = M.decode_step(params, sibling, d1, 7, 6)
    k2 = [k.copy() for k in d2.self_k]
    lp_other, d2_other = M.decode_step(params, sibling, d1, 9, 6)   # replay, other token
    assert d2_other.rows is not d2.rows
    assert all(np.array_equal(a, b) for a, b in zip(k2, d2.self_k, strict=True))
    lp_fresh, _ = M.decode_step(params, sibling, d1, 9, 6)
    assert np.array_equal(lp_other, lp_fresh)


def test_position_table_slices_equal_sinusoid_rows_across_doublings():
    d = 10                                    # a width no other test uses
    M._POSITION_TABLES.pop(d, None)
    for start, n in ((0, 3), (60, 10), (5, 2), (1000, 5), (0, 1200), (7, 1)):
        assert np.array_equal(M._position_rows(start, n, d), M.sinusoid_rows(start, n, d))
    assert len(M._POSITION_TABLES[d]) >= 1200
    params = small_params()
    ids = np.array([[4, 5, 6], [7, 8, 9]])
    want = params.tensors["embed"][ids] * math.sqrt(16) + M.sinusoid_rows(40, 3, 16)
    assert np.array_equal(M._embed(params, "embed", ids, 40), want)
    # a list of ids takes one position per column, like an array of them
    assert np.array_equal(M._embed(params, "embed", [7, 8, 9], 40), want[1])
    for one in (8, np.int64(8)):
        assert np.array_equal(M._embed(params, "embed", one, 41), want[1, 1])


def test_encoder_is_causal_bitwise():
    params = small_params()
    rng = np.random.default_rng(2)
    x1 = rand_sentence(rng, 10)
    for z in (1, 4, 9):
        x2 = list(x1)
        x2[z:] = rand_sentence(rng, 10 - z)
        e1 = M.encode_prefix(params, x1 + [EOS])
        e2 = M.encode_prefix(params, x2 + [EOS])
        assert np.array_equal(e1.memory[:z], e2.memory[:z])
        lp1, _ = M.decode_step(params, e1, None, BOS, z)
        lp2, _ = M.decode_step(params, e2, None, BOS, z)
        assert np.array_equal(lp1, lp2)


def test_decode_step_matches_teacher_forced():
    params = small_params()
    rng = np.random.default_rng(3)
    x = rand_sentence(rng, 8)
    y = rand_sentence(rng, 6)
    path = [min(3 + t, len(x)) for t in range(len(y))]
    visible = M.path_visibility(np.array([path]), np.array([len(x)]))[0]
    x_model = np.array([x + [EOS]])
    mem, _ = M.encoder_forward(params, x_model)
    full, _ = M.decoder_forward(params, mem, [[BOS] + y[:-1]], visible[None])
    full = full[0]

    enc = M.encode_prefix(params, x_model[0])
    dec = None
    prev = BOS
    for t in range(len(y)):
        lp, dec = M.decode_step(params, enc, dec, prev, int(visible[t]))
        assert np.abs(lp - full[t]).max() < 1e-12
        prev = y[t]


def test_decode_step_purity_and_validation():
    params = small_params()
    enc = M.encode_prefix(params, [4, 5, 6])
    lp1, d1 = M.decode_step(params, enc, None, BOS, 2)
    k_before = [k.copy() for k in d1.self_k]
    lp2, d2 = M.decode_step(params, enc, d1, 7, 3)
    assert d1.step == 1 and d2.step == 2
    assert all(np.array_equal(a, b) for a, b in zip(k_before, d1.self_k))
    # replaying from the same state gives the same result
    lp2b, _ = M.decode_step(params, enc, d1, 7, 3)
    assert np.array_equal(lp2, lp2b)
    with pytest.raises(ValueError):
        M.decode_step(params, enc, None, BOS, 0)
    with pytest.raises(ValueError):
        M.decode_step(params, enc, None, BOS, 4)


def test_streaming_refuses_ids_outside_the_vocabulary():
    # a negative id would index from the end of the embedding, an id of
    # vocab size past it, and a fraction would be truncated (4.5 read as 4);
    # both functions refuse them before writing a row
    params = M.init_parameters(M.ModelConfig(vocab_size=12, d_model=16, n_heads=2), seed=0)
    enc = M.encode_prefix(params, [4, 5, 6])
    _, dec = M.decode_step(params, enc, None, BOS, 2)
    before = [a.copy() for a in enc.rows.arrays + dec.rows.arrays]
    for ids in ([-1, 2], [4, 12], [-1], [12], [11, 4, 99], [4.5, 6], [4.0], np.array([7.0])):
        with pytest.raises(ValueError, match="outside|integers"):
            M.encode_prefix(params, ids, enc)
        with pytest.raises(ValueError, match="outside|integers"):
            M.encode_prefix(params, ids)
    # 4.5 and 4.0 raised IndexError, and True a reshape error, past the check
    for tok in (-1, 12, 99, 4.5, 4.0, np.float64(4.0), True):
        for state in (None, dec):
            with pytest.raises(ValueError, match="outside"):
                M.decode_step(params, enc, state, tok, 2)
    after = enc.rows.arrays + dec.rows.arrays
    # whole buffers, unused capacity (np.empty, NaN or not) included
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(after, before, strict=True))
    assert enc.rows.filled == 3 and dec.rows.filled == 1
    M.encode_prefix(params, [0, 11], enc)               # the bounds themselves are ids
    M.decode_step(params, enc, dec, 11, 3)
    M.decode_step(params, enc, dec, np.int64(11), 3)


# ---------------------------------------------------------------------------
# reference streaming kernels: encode_prefix and decode_step written with
# one fresh array per operation, as they stood before their bodies moved to
# in-place updates and np.dot; the model must equal them bit for bit

def ref_norm(x, g, b):
    n = x.shape[-1]
    if x.ndim == 1:
        xc = x - np.add.reduce(x) / n
        inv = 1.0 / math.sqrt(np.add.reduce(xc * xc) / n + 1e-5)
    else:
        xc = x - np.add.reduce(x, axis=-1, keepdims=True) / n
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(var + 1e-5)
    return xc * inv * g + b


def ref_attend(q, wo, bo, kh, vh, mask=None):
    """Attention of projected queries q, (d,) or (m, d), over (H, n, d_head)
    heads; ``mask`` spans all n key columns."""
    n_heads, _, dh = kh.shape
    scores = q.reshape(-1, n_heads, dh).swapaxes(0, 1) @ kh.swapaxes(-1, -2)
    scores *= 1.0 / math.sqrt(dh)
    if mask is not None:
        scores += mask[None]
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=-1, keepdims=True)
    return (scores @ vh).swapaxes(0, 1).reshape(q.shape) @ wo + bo


def ref_ffn(x, w1, b1, w2, b2):
    return np.maximum(x @ w1 + b1, 0.0) @ w2 + b2


def ref_embed(params, name, ids, start):
    d = params.config.d_model
    pos = M.sinusoid_rows(start, np.size(ids), d)
    return params.tensors[name][ids] * math.sqrt(d) + (pos[0] if np.ndim(ids) == 0 else pos)


def ref_encode_prefix(params, new_tokens, state=None):
    cfg, t, blocks = params.config, params.tensors, params.blocks
    n_heads, dh, d = cfg.n_heads, cfg.head_dim, cfg.d_model
    new_ids = np.asarray(new_tokens, dtype=np.int64)
    if state is None:
        state = M._empty_encoder_state(params)
    z0 = state.n_tokens
    z = z0 + len(new_ids)
    rows = M._writable_rows(state.rows, z0, len(new_ids))
    enc_kv, memory, cross_kv = rows.arrays
    if len(new_ids) == 1:
        h, mask = ref_embed(params, "embed", new_ids[0], z0), None
    else:
        h = ref_embed(params, "embed", new_ids, z0)
        mask = M.causal_mask(len(new_ids), z, offset=z0)
    for l in range(cfg.n_enc_layers):
        p = f"enc.{l}."
        a_in = ref_norm(h, t[p + "ln1.g"], t[p + "ln1.b"])
        qkv = a_in @ blocks[p + "attn.wqkv"] + blocks[p + "attn.bqkv"]
        kv = enc_kv[l, :, :, :z]
        kv[:, :, z0:] = qkv[..., d:].reshape(-1, 2, n_heads, dh).transpose(1, 2, 0, 3)
        h = h + ref_attend(qkv[..., :d], t[p + "attn.wo"], t[p + "attn.bo"], kv[0], kv[1], mask)
        f_in = ref_norm(h, t[p + "ln2.g"], t[p + "ln2.b"])
        h = h + ref_ffn(f_in, *(t[p + "ffn." + w] for w in ("w1", "b1", "w2", "b2")))
    mem_rows = ref_norm(h, t["enc.final_ln.g"], t["enc.final_ln.b"])
    memory[z0:z] = mem_rows
    ckv = mem_rows @ blocks["dec.cross_attn.wkv"] + blocks["dec.cross_attn.bkv"]
    cross_kv[..., z0:z, :] = (ckv.reshape(-1, cfg.n_dec_layers, 2, n_heads, dh)
                              .transpose(1, 2, 3, 0, 4))
    rows.filled = z
    return M.EncoderState(rows, z)


def ref_decode_step(params, enc_state, dec_state, prev_token, visible):
    cfg, t, blocks = params.config, params.tensors, params.blocks
    n_heads, dh, d = cfg.n_heads, cfg.head_dim, cfg.d_model
    if dec_state is None:
        dec_state = M.empty_decoder_state(params)
    step = dec_state.step
    h = ref_embed(params, "embed", prev_token, step)
    rows = M._writable_rows(dec_state.rows, step, 1)
    self_kv = rows.arrays[0][:, :, :, : step + 1]
    cross_kv = enc_state.rows.arrays[2][:, :, :, :visible]
    for l in range(cfg.n_dec_layers):
        p = f"dec.{l}."
        a_in = ref_norm(h, t[p + "ln1.g"], t[p + "ln1.b"])
        qkv = a_in @ blocks[p + "self_attn.wqkv"] + blocks[p + "self_attn.bqkv"]
        kv = self_kv[l]
        kv[:, :, step] = qkv[d:].reshape(2, n_heads, dh)
        h = h + ref_attend(qkv[:d], t[p + "self_attn.wo"], t[p + "self_attn.bo"], kv[0], kv[1])
        c_in = ref_norm(h, t[p + "ln2.g"], t[p + "ln2.b"])
        q = c_in @ t[p + "cross_attn.wq"] + t[p + "cross_attn.bq"]
        h = h + ref_attend(q, t[p + "cross_attn.wo"], t[p + "cross_attn.bo"],
                           cross_kv[l, 0], cross_kv[l, 1])
        f_in = ref_norm(h, t[p + "ln3.g"], t[p + "ln3.b"])
        h = h + ref_ffn(f_in, *(t[p + "ffn." + w] for w in ("w1", "b1", "w2", "b2")))
    logits = ref_norm(h, t["dec.final_ln.g"], t["dec.final_ln.b"]) @ t["embed"].T
    mx = np.maximum.reduce(logits, axis=-1, keepdims=True)
    logp = logits - (np.log(np.add.reduce(np.exp(logits - mx), axis=-1, keepdims=True)) + mx)
    rows.filled = step + 1
    return logp, M.DecoderState(rows, step + 1)


def _rows_equal(got, want, n):
    """The first n rows of every buffer two states hold are bitwise equal."""
    return all(a.shape[:-2] == b.shape[:-2] and np.array_equal(a[..., :n, :], b[..., :n, :])
               for a, b in zip(got.rows.arrays, want.rows.arrays, strict=True))


@pytest.mark.parametrize("n_heads,seed", [(1, 113), (4, 142), (4, 141), (1, 110), (4, 143)])
def test_streaming_kernels_equal_the_reference_bit_for_bit(n_heads, seed):
    rng = np.random.default_rng(seed)
    v = int(rng.integers(5, 24))
    cfg = M.ModelConfig(vocab_size=v,
                        d_model=n_heads * int(rng.choice([2, 4, 8, 16])), n_heads=n_heads,
                        n_enc_layers=int(rng.integers(1, 3)), n_dec_layers=int(rng.integers(1, 3)),
                        d_ffn=int(rng.integers(3, 40)))
    params = M.init_parameters(cfg, seed=int(rng.integers(1000)))
    params.vector += 0.3 * rng.normal(size=params.vector.shape)  # biases, gains off 0 and 1

    def steps(pair, dec_pair, n_steps, visible_of):
        """Decode n_steps from dec_pair on both sides; returns the chain of
        (model, reference) decoder states."""
        chain = [dec_pair]
        for i in range(n_steps):
            (enc, ref), (dec, rdec) = pair, chain[-1]
            prev, visible = int(rng.integers(0, v)), visible_of(i)
            lp, dec = M.decode_step(params, enc, dec, prev, visible)
            want, rdec = ref_decode_step(params, ref, rdec, prev, visible)
            assert np.array_equal(lp, want) and dec.step == rdec.step
            assert _rows_equal(dec, rdec, dec.step)
            chain.append((dec, rdec))
        return chain

    for _ in range(3):
        n = int(rng.integers(2, 70))                  # past several capacity doublings
        x = rng.integers(0, v, size=n)
        encs, i = [(None, None)], 0
        while i < n:
            j = min(n, i + int(rng.choice([1, 1, 1, 2, 3, 5, 9, 17])))
            enc, ref = encs[-1]
            enc, ref = M.encode_prefix(params, x[i:j], enc), ref_encode_prefix(params, x[i:j], ref)
            assert enc.n_tokens == ref.n_tokens == j and _rows_equal(enc, ref, j)
            encs.append((enc, ref))
            steps(encs[-1], (None, None), 2, lambda _: int(rng.integers(1, j + 1)))
            i = j
        # extend older states by one token and by a block
        for m in (1, int(rng.integers(2, 12))) if len(encs) > 2 else ():
            at = int(rng.integers(1, len(encs) - 1))
            (old, old_ref), tail = encs[at], rng.integers(0, v, size=m)
            enc, ref = M.encode_prefix(params, tail, old), ref_encode_prefix(params, tail, old_ref)
            assert _rows_equal(enc, ref, old.n_tokens + m)
        # every visible in 1..n, the decoder buffers past their doublings,
        # then steps replayed from older decoder states
        order = rng.permutation(n) + 1
        chain = steps(encs[-1], (None, None), n + 12, lambda s: int(order[s % n]))
        for _ in range(4):
            back = chain[int(rng.integers(0, len(chain) - 1))]
            steps(encs[-1], back, 3, lambda _: int(rng.integers(1, n + 1)))


# ---------------------------------------------------------------------------
# reference training primitives: layer_norm_backward, attention,
# attention_backward, ffn and ffn_backward written with one fresh array per
# operation and heads merged by copies, as they stood before their bodies
# moved to in-place forms and head-merged buffers; the model must equal them
# bit for bit

def ref_rows(x):
    return x.reshape(-1, x.shape[-1])


def ref_split_heads(x, n_heads):
    b, m, d = x.shape
    return x.reshape(b, m, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def ref_merge_heads(x):
    b, h, m, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, m, h * dh)


def ref_layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    dg = ref_rows(dy * xhat).sum(axis=0)
    db = ref_rows(dy).sum(axis=0)
    dxhat = dy * g
    n = dy.shape[-1]
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / n
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dg, db


def ref_attention(params, prefix, x, mask, kv=None):
    t = params.tensors
    h = params.config.n_heads
    if kv is None:
        d = params.config.d_model
        qkv = x @ params.blocks[f"{prefix}.wqkv"]
        qkv += params.blocks[f"{prefix}.bqkv"]
        qh, kh, vh = (ref_split_heads(qkv[..., i * d : (i + 1) * d], h) for i in range(3))
    else:
        q = x @ t[f"{prefix}.wq"]
        q += t[f"{prefix}.bq"]
        qh = ref_split_heads(q, h)
        kh, vh = kv
    p = qh @ kh.swapaxes(-1, -2)
    p *= 1.0 / math.sqrt(qh.shape[-1])
    if mask is not None:
        masked = p[..., -mask.shape[-1]:]
        masked += mask[..., None, :, :]
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    a = ref_merge_heads(p @ vh)
    out = a @ t[f"{prefix}.wo"]
    out += t[f"{prefix}.bo"]
    return out, (x, kv is None, qh, kh, vh, p, a, prefix)


def ref_attention_backward(params, dout, cache, grads):
    x, self_attention, qh, kh, vh, p, a, prefix = cache
    t, g = params.tensors, grads.tensors
    h = params.config.n_heads
    scale = 1.0 / math.sqrt(params.config.head_dim)
    g[f"{prefix}.wo"] += ref_rows(a).T @ ref_rows(dout)
    g[f"{prefix}.bo"] += ref_rows(dout).sum(axis=0)
    da = dout @ t[f"{prefix}.wo"].T
    dah = ref_split_heads(da, h)
    dp = dah @ vh.swapaxes(-1, -2)
    dvh = p.swapaxes(-1, -2) @ dah
    dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.swapaxes(-1, -2) @ qh
    dq, dk, dv = ref_merge_heads(dqh), ref_merge_heads(dkh), ref_merge_heads(dvh)
    if self_attention:
        dqkv = np.concatenate((ref_rows(dq), ref_rows(dk), ref_rows(dv)), axis=1)
        grads.blocks[f"{prefix}.wqkv"] += ref_rows(x).T @ dqkv
        grads.blocks[f"{prefix}.bqkv"] += dqkv.sum(axis=0)
        dkv = None
    else:
        g[f"{prefix}.wq"] += ref_rows(x).T @ ref_rows(dq)
        g[f"{prefix}.bq"] += ref_rows(dq).sum(axis=0)
        dkv = np.concatenate((ref_rows(dk), ref_rows(dv)), axis=1)
    dq_in = dq @ t[f"{prefix}.wq"].T
    dkv_in = dk @ t[f"{prefix}.wk"].T + dv @ t[f"{prefix}.wv"].T
    return dq_in, dkv_in, dkv


def ref_ffn_batch(params, prefix, x):
    t = params.tensors
    h1 = x @ t[f"{prefix}.w1"]
    h1 += t[f"{prefix}.b1"]
    r = np.maximum(h1, 0.0)
    out = r @ t[f"{prefix}.w2"]
    out += t[f"{prefix}.b2"]
    return out, (x, h1, r, prefix)


def ref_ffn_backward(params, dout, cache, grads):
    x, h1, r, prefix = cache
    t, g = params.tensors, grads.tensors
    g[f"{prefix}.w2"] += ref_rows(r).T @ ref_rows(dout)
    g[f"{prefix}.b2"] += ref_rows(dout).sum(axis=0)
    dr = dout @ t[f"{prefix}.w2"].T
    dh1 = dr * (h1 > 0.0)
    g[f"{prefix}.w1"] += ref_rows(x).T @ ref_rows(dh1)
    g[f"{prefix}.b1"] += ref_rows(dh1).sum(axis=0)
    return dh1 @ t[f"{prefix}.w1"].T


def _equal(got, want):
    """Bitwise equality of two results, NaN where NaN, through tuples."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(_equal(a, b) for a, b in zip(got, want))
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and np.array_equal(got, want, equal_nan=True))
    return got is want or got == want


def _backward_pair(params, rng, backward, ref_backward, dout, cache, ref_cache):
    """Run the model's and the reference's backward into grads that start
    from the same nonzero values; returns (results equal?, grads equal?)."""
    grads, ref_grads = M.zero_grads(params), M.zero_grads(params)
    grads.vector[:] = ref_grads.vector[:] = rng.normal(size=grads.vector.shape)
    got = backward(params, dout, cache, grads)
    want = ref_backward(params, dout, ref_cache, ref_grads)
    return _equal(got, want), np.array_equal(grads.vector, ref_grads.vector, equal_nan=True)


@pytest.mark.parametrize("n_heads,d_model", [(1, 32), (4, 32), (1, 64), (4, 64)])
def test_training_primitives_equal_the_reference_bit_for_bit(n_heads, d_model):
    cfg = M.ModelConfig(vocab_size=16, d_model=d_model,
                        n_heads=n_heads, n_enc_layers=1, n_dec_layers=2, d_ffn=2 * d_model)
    rng = np.random.default_rng(n_heads * 1000 + d_model)
    params = M.init_parameters(cfg, seed=n_heads + d_model)
    params.vector += 0.1 * rng.normal(size=params.vector.shape)   # nonzero biases, gains off 1
    t = params.tensors
    for b in (1, 3):
        for m, n in ((1, 1), (1, 6), (7, 7), (5, 11)):
            x = rng.normal(size=(b, m, d_model))
            mem = rng.normal(size=(b, n, d_model))
            masks = (M.causal_mask(m, n, offset=n - m),
                     M.visibility_mask(rng.integers(1, n + 1, size=(b, m)), n))
            for mask in masks:
                # self-attention (its keys are its own rows, so m must be n),
                # then cross-attention over the memory's key and value heads
                cases = [("enc.0.attn", None)] if m == n else []
                cases.append(("dec.1.cross_attn", separate_kv(params, "dec.1.cross_attn", mem)))
                for prefix, kv in cases:
                    out, cache = M.attention(params, prefix, x, mask, kv)
                    want, ref_cache = ref_attention(params, prefix, x, mask, kv)
                    assert _equal(out, want) and _equal(cache, ref_cache), prefix
                    dout = rng.normal(size=out.shape)
                    assert _backward_pair(params, rng, M.attention_backward,
                                          ref_attention_backward, dout, cache,
                                          ref_cache) == (True, True), prefix

            y, ln_cache = M.layer_norm(x, t["enc.0.ln1.g"], t["enc.0.ln1.b"])
            dy = rng.normal(size=y.shape)
            assert _equal(M.layer_norm_backward(dy, ln_cache), ref_layer_norm_backward(dy, ln_cache))

            # pre-activations of NaN (a NaN input row) and of exact 0.0 (a
            # zero input row against zero biases) next to ordinary ones
            xf = x.copy()
            rows = xf.reshape(-1, d_model)
            rows[0] = np.nan
            if len(rows) > 1:
                rows[-1] = 0.0
            b1 = t["dec.0.ffn.b1"]
            b1[: d_model // 2] = 0.0
            out, cache = M.ffn(params, "dec.0.ffn", xf)
            want, ref_cache = ref_ffn_batch(params, "dec.0.ffn", xf)
            h1 = ref_cache[1]
            assert np.isnan(h1).any() and (len(rows) == 1 or (h1 == 0.0).any())
            assert _equal(out, want)
            assert _equal(cache, (ref_cache[0], ref_cache[2], ref_cache[3]))
            dout = rng.normal(size=out.shape)
            assert _backward_pair(params, rng, M.ffn_backward, ref_ffn_backward,
                                  dout, cache, ref_cache) == (True, True)

            # no product makes -0.0, so the ReLU masks meet it through a cache:
            # a pre-activation holding NaN, 0.0, -0.0 and both signs
            h1 = rng.normal(size=(b, m, 2 * d_model))
            h1.flat[:4] = np.nan, 0.0, -0.0, -0.0
            assert np.signbit(h1).any() and (h1 == 0.0).sum() == 3
            r = np.maximum(h1, 0.0)
            assert _backward_pair(params, rng, M.ffn_backward, ref_ffn_backward, dout,
                                  (xf, r, "dec.0.ffn"),
                                  (xf, h1, r, "dec.0.ffn")) == (True, True)


def test_a_cache_backpropagates_twice_with_the_same_bits():
    # the backward passes work in place only in arrays they make: neither
    # the caller's dlogp nor any array of the cache changes, so a second
    # backward from one cache gives the first one's gradients bit for bit
    params = small_params(seed=12)
    rng = np.random.default_rng(13)
    params.vector += 0.1 * rng.normal(size=params.vector.shape)
    x, x_len, y_in, path = padded(*random_batch(rng, 7))
    logp, cache = M.forward_full(params, x, y_in, path, x_len)
    dlogp = np.where((path > 0)[..., None], rng.normal(size=logp.shape), 0.0)
    kept = [a.copy() for a in _arrays_in(cache)]
    dlogp_before, params_before = dlogp.copy(), params.vector.copy()
    first = M.backward_full(params, cache, dlogp, M.zero_grads(params))
    second = M.backward_full(params, cache, dlogp, M.zero_grads(params))
    assert np.array_equal(first.vector, second.vector)
    assert np.array_equal(dlogp, dlogp_before)
    assert np.array_equal(params.vector, params_before)
    assert all(np.array_equal(a, b) for a, b in zip(_arrays_in(cache), kept, strict=True))


def test_flat_vectors_start_on_a_cache_line(tmp_path):
    # Parameters and aligned_zeros promise a first element on a 64-byte
    # boundary, which numpy's own large buffers miss by 16 bytes here
    for shape in ((1,), (7,), (3, 5), (4097,), (64, 17), (2, 3, 4), (170_240,)):
        a = M.aligned_zeros(shape)
        assert a.ctypes.data % 64 == 0 and a.shape == shape and not a.any()
    params = small_params()
    M.save_checkpoint(params, tmp_path / "m.ckpt")
    for p in (params, params.copy(), M.load_checkpoint(tmp_path / "m.ckpt"),
              M.zero_grads(params), M.init_parameters(M.desk_config(40), seed=1)):
        assert p.vector.ctypes.data % 64 == 0
        assert all(np.shares_memory(t, p.vector) for t in p.tensors.values())


def test_checkpoint_roundtrip(tmp_path):
    params = small_params(seed=9)
    # make values less tidy than the init distribution
    for t in params.tensors.values():
        t += np.pi * 1e-3
    p = tmp_path / "m.ckpt"
    M.save_checkpoint(params, p)
    back = M.load_checkpoint(p)
    assert back.config == params.config
    assert set(back.tensors) == set(params.tensors)
    for k in params.tensors:
        assert np.array_equal(back.tensors[k], params.tensors[k])


def test_fixture_checkpoint_round_trips_byte_for_byte(tmp_path):
    fixture = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "copy_desk.ckpt"
    M.save_checkpoint(M.load_checkpoint(fixture), tmp_path / "m.ckpt")
    assert (tmp_path / "m.ckpt").read_bytes() == fixture.read_bytes()


def _split_checkpoint(path):
    data = path.read_bytes()
    n = int.from_bytes(data[8:16], "little")
    return json.loads(data[16:16 + n]), data[16 + n:]


def _write_checkpoint(path, manifest, payload=b""):
    raw = json.dumps(manifest).encode()
    path.write_bytes(b"SMTCKPT1" + len(raw).to_bytes(8, "little") + raw + payload)


@pytest.mark.parametrize("edit", [
    lambda c: {**c, "dropout": 0.1},                                   # unknown key
    lambda c: {k: v for k, v in c.items() if k != "d_ffn"},            # missing key
    lambda c: list(c.values()),                                        # not a mapping
    lambda c: None,
    lambda c: {**c, "d_model": "16"},                                  # wrong types
    lambda c: {**c, "joint_vocabulary": 1},
    lambda c: {**c, "joint_vocabulary": False},                        # older layouts
    lambda c: {**c, "tie_decoder_embeddings": False},
    lambda c: {**c, "tgt_vocab_size": c["tgt_vocab_size"] + 1},
])
def test_checkpoint_rejects_bad_config(tmp_path, edit):
    p = tmp_path / "m.ckpt"
    M.save_checkpoint(small_params(), p)
    manifest, payload = _split_checkpoint(p)
    manifest["config"] = edit(manifest["config"])
    _write_checkpoint(p, manifest, payload)
    with pytest.raises(ValueError):
        M.load_checkpoint(p)


def test_checkpoint_rejects_bad_layout(tmp_path):
    p = tmp_path / "m.ckpt"
    M.save_checkpoint(small_params(), p)
    manifest, payload = _split_checkpoint(p)
    entries = manifest["tensors"]
    bad = [
        entries[1:],                                                   # name missing
        entries + [dict(entries[0])],                                  # listed twice
        [{**entries[0], "shape": [16, 15]}] + entries[1:],             # wrong shape
        [{**entries[0], "offset": len(payload)}] + entries[1:],        # past the end
        [{**entries[0], "offset": -8}] + entries[1:],
        [{**entries[0], "offset": "0"}] + entries[1:],                 # malformed
        [None] + entries[1:],
    ]
    for tensors in bad:
        _write_checkpoint(p, {**manifest, "tensors": tensors}, payload)
        with pytest.raises(ValueError):
            M.load_checkpoint(p)
    _write_checkpoint(p, manifest, payload[:-8])                       # truncated payload
    with pytest.raises(ValueError):
        M.load_checkpoint(p)
    p.write_bytes(p.read_bytes()[:40])                                 # truncated manifest
    with pytest.raises(ValueError):
        M.load_checkpoint(p)


def test_checkpoint_header_is_checked_before_allocating(tmp_path):
    # a header that declares a 200k-token vocabulary but carries no payload
    # must be rejected without building ~100 MB of tensors first
    cfg = M.desk_config(200_000)
    entries = [{"name": name, "shape": list(shape), "offset": 0}
               for name, shape in M.parameter_shapes(cfg).items()]
    p = tmp_path / "huge.ckpt"
    for tensors in ([], entries):
        _write_checkpoint(p, {"config": cfg.to_dict(), "tensors": tensors})
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                M.load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        M.load_checkpoint(p)
