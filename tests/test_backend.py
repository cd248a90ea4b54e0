import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache.backend import (
    CostModel,
    PrefillState,
    QkvPrefix,
    QkvTensors,
    ScriptedBackend,
    ToyModel,
    ToyModelConfig,
    decode_macs,
    prefill_macs,
)
from percache.config import ConfigError, EngineConfig
from percache.engine import load_script

ROOT = Path(__file__).resolve().parent.parent
CFG = ToyModelConfig(layers=2, heads=2, head_dim=8, vocab_size=64, seed=11)


def _tokens(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CFG.vocab_size, size=n).tolist()


def test_identical_config_identical_weights_and_outputs():
    a, b = ToyModel(CFG), ToyModel(CFG)
    assert np.array_equal(a.emb, b.emb)
    toks = _tokens(9)
    sa, sb = a.prefill(toks), b.prefill(toks)
    assert np.array_equal(sa.tensors.data, sb.tensors.data)


def test_seed_changes_weights():
    other = ToyModel(ToyModelConfig(layers=2, heads=2, head_dim=8, vocab_size=64, seed=12))
    assert not np.array_equal(other.emb, ToyModel(CFG).emb)


def test_prefill_empty_prompt_rejected():
    with pytest.raises(ValueError):
        ToyModel(CFG).prefill([])
    # the cost of no inference at all, as charged on a QA hit
    assert prefill_macs(CFG, 0, 0) == 0


def test_prefix_longer_than_prompt_rejected():
    model = ToyModel(CFG)
    full = model.prefill(_tokens(6)).tensors
    with pytest.raises(ValueError):
        model.prefill(_tokens(4), QkvPrefix(full, 6))


def test_prefix_of_another_shape_rejected():
    # a one-head prefix would otherwise broadcast into the model's two heads
    model = ToyModel(CFG)
    for layers, heads, head_dim in ((2, 1, 8), (2, 2, 4), (3, 2, 8)):
        other = ToyModel(ToyModelConfig(layers=layers, heads=heads, head_dim=head_dim,
                                        vocab_size=64, seed=11))
        prefix = QkvPrefix(other.prefill(_tokens(6)).tensors, 6)
        with pytest.raises(ValueError, match="shape"):
            model.prefill(_tokens(8), prefix)


@pytest.mark.parametrize("split", [1, 3, 7, 9, 10])
def test_split_prefill_bitwise_equal(split):
    # prefill with a cached prefix of every length (including the full
    # prompt) must reproduce the full recompute bit for bit, and so must
    # decoding from it
    model = ToyModel(CFG)
    toks = _tokens(10, seed=split)
    full = model.prefill(toks)
    prefix = QkvPrefix(full.tensors.slice_tokens(0, split), split)
    state = model.prefill(toks, prefix)
    assert state.tensors.token_count == full.tensors.token_count == 10
    assert np.array_equal(state.tensors.data, full.tensors.data)
    assert np.array_equal(state.last_hidden, full.last_hidden)
    assert model.decode_ids(state, 6) == model.decode_ids(full, 6)


def test_decode_deterministic_and_cached_equal():
    model = ToyModel(CFG)
    toks = _tokens(12, seed=3)
    state_a = model.prefill(toks)
    out_a = model.decode_ids(state_a, 6)
    prefix = QkvPrefix(model.prefill(toks).tensors.slice_tokens(0, 8), 8)
    state_b = model.prefill(toks, prefix)
    out_b = model.decode_ids(state_b, 6)
    assert out_a == out_b
    state_c = model.prefill(toks)
    assert model.decode_ids(state_c, 6) == out_a


def test_decode_max_tokens_one_and_validation():
    model = ToyModel(CFG)
    state = model.prefill(_tokens(5))
    assert len(model.decode_ids(state, 1)) == 1
    with pytest.raises(ValueError):
        model.decode_ids(state, 0)


def test_decode_eos_stops():
    model = ToyModel(CFG)
    state = model.prefill(_tokens(5))
    first = model.decode_ids(state, 8)[0]
    state2 = model.prefill(_tokens(5))
    assert model.decode_ids(state2, 8, eos_id=first) == [first]


def _cfg_layers(layers):
    return ToyModelConfig(layers=layers, heads=2, head_dim=8, vocab_size=64, seed=11)


@pytest.mark.parametrize("l_total,l_pre",
                         [(1, 0), (1, 1), (2, 1), (6, 0), (6, 3), (10, 9), (10, 10)])
def test_prefill_macs_match_instrumented(l_total, l_pre):
    toks = _tokens(l_total, seed=l_total)
    for layers in (1, 2, 3):
        cfg = _cfg_layers(layers)
        model = ToyModel(cfg)
        if l_pre:
            full = model.prefill(toks).tensors
            prefix = QkvPrefix(full.slice_tokens(0, l_pre), l_pre)
        else:
            prefix = None
        model.mac_count = 0
        model.prefill(toks, prefix)
        assert model.mac_count == prefill_macs(cfg, l_total, l_pre), layers


# -- pruned last layer against every row through every layer --------------------


def _ref_layers(model, token_ids, kv, start):
    # the layer loop before the last layer was pruned: every row through
    # every layer, with the model's own kernels. It is compared by its K/V
    # rows of every layer and the last hidden state, which depend on every
    # Q that is computed and used
    end = start + token_ids.shape[0]
    positions = np.arange(start, end)
    cos, sin = model._rotary(start, end)
    x = model.emb[token_ids]
    for layer in range(model.config.layers):
        qkv = model._block_qkv(layer, x, cos, sin)
        kv[layer, :, start:end] = qkv[1:]
        attn = model._attention(qkv[0], kv[layer, 0, :end], kv[layer, 1, :end], positions)
        x = model._block_tail(layer, x, attn)
    return model._rmsnorm(x[-1:])


def _ref_prefill_and_decode(model, toks, pre, max_tokens):
    # the first pre rows come from the reference's own run over the whole
    # prompt, as a cached prefix would
    n = len(toks)
    start = min(pre, n - 1)
    token_ids = np.asarray(toks, dtype=np.int64)
    kv = model._buffer(n + max_tokens - 1)
    if start:
        _ref_layers(model, token_ids, kv, 0)
    hidden = _ref_layers(model, token_ids[start:], kv, start)
    state = PrefillState(QkvTensors(kv[:, :, :n].copy()), hidden)
    generated = []
    for step in range(max_tokens):
        tok = int(np.argmax(model._mm(hidden, model.w_out)[0]))
        generated.append(tok)
        if step == max_tokens - 1:
            break
        hidden = _ref_layers(model, np.array([tok]), kv, n + step)
    return state, generated


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 9, 130])
@pytest.mark.parametrize("prefix_len", ["none", "half", "full"])
def test_pruned_prefill_bitwise_equals_every_row_reference(layers, n, prefix_len):
    model = ToyModel(_cfg_layers(layers))
    toks = _tokens(n, seed=n + layers)
    pre = {"none": 0, "half": n // 2, "full": n}[prefix_len]
    want, want_ids = _ref_prefill_and_decode(model, toks, pre, 5)
    prefix = QkvPrefix(want.tensors.slice_tokens(0, pre), pre) if pre else None
    state = model.prefill(toks, prefix)
    assert _bits_equal(state.tensors.data, want.tensors.data)
    assert _bits_equal(state.last_hidden, want.last_hidden)
    assert model.decode_ids(state, 5) == want_ids


@pytest.mark.parametrize("gen", [1, 2, 5])
def test_decode_macs_match_instrumented(gen):
    model = ToyModel(CFG)
    toks = _tokens(7, seed=gen)
    state = model.prefill(toks)
    model.mac_count = 0
    out = model.decode_ids(state, gen)
    assert len(out) == gen  # no accidental eos in toy decoding here
    assert model.mac_count == decode_macs(CFG, 7, gen)
    # with drafts, decode_macs charges the passes that ran, rejected rows too
    for drafts in (_right_drafts(out), _wrong_drafts(out)):
        passes = []
        model.mac_count = 0
        assert model.decode_ids(state, gen, drafts=drafts, passes=passes) == out
        assert model.mac_count == decode_macs(CFG, 7, gen, passes)
        assert sum(rows for _, rows in passes) >= gen - 1


# -- decoding with drafts against one row per step ------------------------------


def _greedy(model, state, max_tokens, eos_id=None):
    # greedy decoding one row per step, as decode_ids ran before drafts
    n = state.tensors.token_count
    kv = model._buffer(n + max_tokens - 1)
    kv[:, :, :n] = state.tensors.data
    hidden, generated = state.last_hidden, []
    for step in range(max_tokens):
        tok = int(np.argmax(model._mm(hidden, model.w_out)[0]))
        generated.append(tok)
        if tok == eos_id or step == max_tokens - 1:
            break
        hidden = model._layers(np.array([tok]), kv, n + step)
    return generated


def _right_drafts(ids):
    return dict(zip(ids, ids[1:]))


def _wrong_drafts(ids):
    # every emitted token's draft differs from the token that follows it
    return {a: (b + 1) % CFG.vocab_size for a, b in zip(ids, ids[1:])}


def _decode_state(layers, cached):
    # a prompt whose greedy ids start with 5 or more distinct tokens, then cycle
    model = ToyModel(_cfg_layers(layers))
    toks = _tokens(9, seed=6 + layers)
    prefix = None
    if cached:
        prefix = QkvPrefix(model.prefill(toks).tensors.slice_tokens(0, 6), 6)
    return model, model.prefill(toks, prefix)


def _check_drafted(model, state, max_tokens, eos_id, drafts):
    """decode_ids with drafts must emit the one-row-per-step ids, leave state
    as it was, record every emitted pair in drafts and report passes in
    order, inside the decode buffer. Returns the ids and the passes."""
    data, hidden = state.tensors.data.copy(), state.last_hidden.copy()
    want = _greedy(model, state, max_tokens, eos_id)
    before = None if drafts is None else dict(drafts)
    passes = []
    got = model.decode_ids(state, max_tokens, eos_id, drafts, passes)
    assert got == want, (before, passes)
    assert _bits_equal(state.tensors.data, data) and _bits_equal(state.last_hidden, hidden)
    if drafts is not None:
        emitted = _right_drafts(got)
        assert {a: drafts[a] for a in emitted} == emitted
        assert {a: b for a, b in drafts.items() if a not in emitted} == {
            a: b for a, b in before.items() if a not in emitted}
    n = state.tensors.token_count
    assert [start for start, _ in passes] == sorted({start for start, _ in passes})
    assert all(n <= start < n + max_tokens - 1 and 1 <= start + rows - n < max_tokens
               for start, rows in passes)
    return got, passes


@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("cached", [False, True])
def test_drafted_decode_equals_one_row_per_step(layers, cached):
    model, state = _decode_state(layers, cached)
    ids = _greedy(model, state, 12)
    # no drafts: one row per pass
    _, passes = _check_drafted(model, state, 12, None, None)
    assert passes == [(9 + i, 1) for i in range(11)]
    # a table that starts empty drafts from the decode's own earlier pairs
    _check_drafted(model, state, 12, None, {})
    # all right: one pass over the longest run of distinct ids, whose
    # successors one table can hold; past it, as right as a table can be
    distinct = next((i for i in range(len(ids)) if ids[i] in ids[:i]), len(ids))
    assert distinct >= 5
    _, passes = _check_drafted(model, state, distinct, None, _right_drafts(ids[:distinct]))
    assert passes == [(9, distinct - 1)]
    _check_drafted(model, state, 12, None, _right_drafts(ids))
    # all wrong: every pass verifies one draft and rejects it, each pass
    # correcting the table for later passes
    _, passes = _check_drafted(model, state, distinct, None, _wrong_drafts(ids[:distinct]))
    assert passes == [(9 + i, 2) for i in range(distinct - 2)] + [(7 + distinct, 1)]
    _check_drafted(model, state, 12, None, _wrong_drafts(ids))
    # eos inside the chain: the chain stops before it, and the decode at it
    for j in (1, distinct - 1):
        got, passes = _check_drafted(model, state, 12, ids[j], _right_drafts(ids[:distinct]))
        assert got == ids[: j + 1] and passes == [(9, j)]
    _check_drafted(model, state, 12, ids[distinct - 1], _right_drafts(ids))
    # a chain longer than max_tokens allows: capped, never past the buffer
    for max_tokens in (1, 2, 5):
        _check_drafted(model, state, max_tokens, None, _right_drafts(ids))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    layers=st.integers(1, 3),
    cached=st.booleans(),
    max_tokens=st.integers(1, 10),
    eos_id=st.none() | st.integers(0, CFG.vocab_size - 1),
    table=st.none() | st.dictionaries(st.integers(0, CFG.vocab_size - 1),
                                      st.integers(0, CFG.vocab_size - 1), max_size=40),
    right=st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_drafted_decode_equals_one_row_per_step_random_tables(layers, cached, max_tokens, eos_id,
                                                               table, right):
    # random tables, some entries overwritten by the right successor so
    # that chains get accepted in part
    model, state = _decode_state(layers, cached)
    ids = _greedy(model, state, 10)
    for keep, a, b in zip(right, ids, ids[1:]):
        if keep and table is not None:
            table[a] = b
    _check_drafted(model, state, max_tokens, eos_id, table)


# -- whole-array kernels against the per-column loops they replaced ------------
#
# Each reference loop below is the accumulation order the model is defined by.
# The kernels must reproduce it bit for bit on every shape: compared as raw
# float32 bits, never with a tolerance.

KERNEL_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None, database=None)
KERNEL_BUDGET_S = 20.0


def _bits_equal(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _values(seed, shape):
    # normal values with a sprinkling of signed zeros
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, shape).astype(np.float32)
    zero = rng.random(shape) < 0.05
    x[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return x


def _kernel_model():
    return ToyModel(ToyModelConfig(layers=1, heads=1, head_dim=2, vocab_size=1, seed=0x7031))


def _ref_mm(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    tmp = np.empty_like(out)
    for i in range(a.shape[1]):
        np.multiply(a[:, i : i + 1], b[i], out=tmp)
        out += tmp
    return out


def _ref_rmsnorm(x):
    ss = np.zeros(x.shape[0], dtype=np.float32)
    for dcol in range(x.shape[1]):
        ss += x[:, dcol] * x[:, dcol]
    inv = np.float32(1.0) / np.sqrt(ss / np.float32(x.shape[1]) + np.float32(1e-5))
    return x * inv[:, None]


def _ref_rope(t, positions, inv_freq):
    angles = positions.astype(np.float32)[:, None] * inv_freq[None, :]
    cos = np.cos(angles)[:, None, :]
    sin = np.sin(angles)[:, None, :]
    even = t[..., 0::2]
    odd = t[..., 1::2]
    out = np.empty_like(t)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _ref_attention(q, k_full, v_full, positions):
    s, heads, dh = q.shape
    total = k_full.shape[0]
    scale = np.float32(1.0 / math.sqrt(dh))
    mask = (positions[:, None] >= np.arange(total)[None, :])[:, None, :]
    scores = np.zeros((s, heads, total), dtype=np.float32)
    tmp = np.empty_like(scores)
    for dcol in range(dh):
        np.multiply(q[:, :, dcol : dcol + 1], k_full[:, :, dcol].T[None, :, :], out=tmp)
        scores += tmp
    scores = np.where(mask, scores * scale, np.float32(-np.inf))
    mx = np.max(scores, axis=2, keepdims=True)
    e = np.exp(scores - mx)
    denom = np.zeros((s, heads, 1), dtype=np.float32)
    for j in range(total):
        denom += e[:, :, j : j + 1]
    w = e / denom
    out = np.zeros((s, heads, dh), dtype=np.float32)
    tmp = np.empty_like(out)
    for j in range(total):
        np.multiply(w[:, :, j : j + 1], v_full[None, j, :, :], out=tmp)
        out += tmp
    return out


def _within_budget(check):
    t0 = time.monotonic()
    check()
    took = time.monotonic() - t0
    assert took < KERNEL_BUDGET_S, f"{check.__name__} took {took:.1f}s"


@KERNEL_SETTINGS
@given(
    rows=st.integers(1, 40),
    inner=st.integers(1, 260),
    cols=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1, inner=64, cols=1, seed=0)  # a decode step against w_out, vocab_size 1
@example(rows=7, inner=32, cols=1, seed=1)
@example(rows=1, inner=2, cols=2, seed=2)  # dim 2
@example(rows=1, inner=256, cols=64, seed=3)  # decode through w2
def _check_mm(rows, inner, cols, seed):
    a = _values(seed, (rows, inner))
    b = _values(seed + 1, (inner, cols))
    model = _kernel_model()
    got = model._mm(a, b)
    assert _bits_equal(got, _ref_mm(a, b)), (rows, inner, cols)
    assert model.mac_count == rows * inner * cols


@KERNEL_SETTINGS
@given(
    rows=st.integers(1, 40),
    dim=st.integers(1, 130),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1, dim=2, seed=0)  # one row, dim 2
@example(rows=1, dim=64, seed=1)
@example(rows=33, dim=16, seed=2)
def _check_rmsnorm(rows, dim, seed):
    x = _values(seed, (rows, dim))
    got = _kernel_model()._rmsnorm(x)
    assert _bits_equal(got, _ref_rmsnorm(x)), (rows, dim)


@KERNEL_SETTINGS
@given(
    rows=st.integers(1, 24),
    past=st.integers(0, 60),
    heads=st.integers(1, 4),
    half_dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1, past=0, heads=1, half_dim=1, seed=0)  # one key position, head_dim 2
@example(rows=1, past=40, heads=4, half_dim=8, seed=1)  # a decode step
@example(rows=30, past=0, heads=2, half_dim=4, seed=2)  # a cold prefill
@example(rows=1, past=69, heads=4, half_dim=8, seed=3)  # prefix_reuse decode step
@example(rows=45, past=25, heads=4, half_dim=8, seed=4)  # prefix_reuse suffix prefill
@example(rows=1, past=40, heads=1, half_dim=2, seed=5)  # one row of one head
# both sides of the V-sum layout rule (rows >= 1.5 head_dim) at head_dim 8 and 16
@example(rows=11, past=20, heads=2, half_dim=4, seed=6)
@example(rows=12, past=20, heads=2, half_dim=4, seed=7)
@example(rows=23, past=20, heads=4, half_dim=8, seed=8)
@example(rows=24, past=20, heads=4, half_dim=8, seed=9)
@example(rows=34, past=100, heads=4, half_dim=8, seed=10)  # prefix_reuse prefill
@example(rows=59, past=28, heads=2, half_dim=4, seed=11)  # qa_repeat prefill
@example(rows=1, past=0, heads=4, half_dim=8, seed=12)  # one key position, head_dim 16
def _check_attention(rows, past, heads, half_dim, seed):
    dh = 2 * half_dim
    total = past + rows
    # Q, K and V as the strided views _block_qkv returns; a past is
    # prepended to K and V as _layers does
    fused = _values(seed, (rows, 3 * heads, dh))
    q, k_full, v_full = fused[:, :heads], fused[:, heads : 2 * heads], fused[:, 2 * heads :]
    if past:
        k_full = np.concatenate([_values(seed + 1, (past, heads, dh)), k_full])
        v_full = np.concatenate([_values(seed + 2, (past, heads, dh)), v_full])
    positions = np.arange(past, total)
    model = _kernel_model()
    got = model._attention(q, k_full, v_full, positions)
    assert _bits_equal(got, _ref_attention(q, k_full, v_full, positions)), (rows, past, heads, dh)
    assert model.mac_count == 2 * rows * heads * total * dh


@KERNEL_SETTINGS
@given(
    rows=st.integers(1, 40),
    past=st.integers(0, 120),
    heads=st.integers(1, 4),
    half_dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=1, past=0, heads=1, half_dim=1, seed=0)  # dim 2
@example(rows=1, past=69, heads=4, half_dim=8, seed=1)  # prefix_reuse decode step
@example(rows=45, past=0, heads=4, half_dim=8, seed=2)  # prefix_reuse cold prefill
def _check_qkv(rows, past, heads, half_dim, seed):
    # the fused projection against one projection each for Q, K and V
    dh = 2 * half_dim
    d = heads * dh
    model = ToyModel(ToyModelConfig(layers=1, heads=heads, head_dim=dh, vocab_size=1, seed=seed))
    x = _values(seed, (rows, d))
    positions = np.arange(past, past + rows)
    got = model._block_qkv(0, x, *model._rotary(past, past + rows))
    h = model._rmsnorm(x)
    w = model.wqkv[0]
    for i, part in enumerate(got):
        want = _ref_mm(h, w[:, i * d : (i + 1) * d]).reshape(rows, heads, dh)
        if i < 2:  # RoPE on Q and K only
            want = _ref_rope(want, positions, model.inv_freq)
        assert _bits_equal(part, want), ("qkv"[i], rows, past, heads, dh)
    assert model.mac_count == 3 * rows * d * d


@pytest.mark.parametrize("check", [_check_mm, _check_rmsnorm, _check_attention, _check_qkv],
                         ids=["mm", "rmsnorm", "attention", "qkv"])
def test_kernel_matches_reference_loop(check):
    _within_budget(check)


@pytest.mark.parametrize("rows,heads,dh",
                         [(1, 1, 4), (1, 4, 4), (3, 1, 4), (20, 2, 4), (24, 4, 16)],
                         ids=["1-1", "1-4", "3-1", "20-2", "24-4-16"])
def test_attention_rows_independent_of_appended_masked_keys(rows, heads, dh):
    # a row's output must not change when masked keys follow it: a cached
    # row is reused inside prompts of other lengths. The totals straddle the
    # 8-accumulator and 128-element blocks of numpy's pairwise sum; at
    # head_dim 16 the rows also take the V sum's rows-innermost layout.
    most = 320
    model = _kernel_model()
    k_all, v_all = _values(1, (most, heads, dh)), _values(2, (most, heads, dh))
    for end in (8, 9, 100, 127, 128, 129, 160, 255, 256, 257, 300):
        positions = np.arange(max(end - rows, 0), end)
        q = _values(end, (len(positions), heads, dh))
        want = model._attention(q, k_all[:end], v_all[:end], positions)
        for total in sorted({end + 1, 129, 257, 301, most} - set(range(end + 1))):
            got = model._attention(q, k_all[:total], v_all[:total], positions)
            assert _bits_equal(got, want), (rows, heads, end, total)


def test_rotary_table_grows_and_keeps_bits():
    # one model asked for positions past, inside and far past its table:
    # every cos and sin equals the one computed for those positions alone
    model = ToyModel(ToyModelConfig(layers=2, heads=4, head_dim=16, vocab_size=64, seed=11))
    for lo, hi in ((0, 10), (250, 300), (1000, 1001), (5, 6)):
        angles = np.arange(lo, hi).astype(np.float32)[:, None] * model.inv_freq
        cos, sin = model._rotary(lo, hi)
        assert _bits_equal(cos, np.cos(angles)[:, None, :]), (lo, hi)
        assert _bits_equal(sin, np.sin(angles)[:, None, :]), (lo, hi)
    # a prefill that grows the table equals one on a fresh model
    model = ToyModel(CFG)
    model.prefill(_tokens(10))
    toks = _tokens(300, seed=1)
    got, want = model.prefill(toks), ToyModel(CFG).prefill(toks)
    assert _bits_equal(got.tensors.data, want.tensors.data)
    assert _bits_equal(got.last_hidden, want.last_hidden)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features are x86 ones")
def test_kernels_match_reference_loops_on_baseline_simd():
    # numpy picks its float32 exp, sin and cos loops by CPU level at run
    # time; the kernels' einsum layouts must keep their summation order
    # under the baseline target too, where those loops differ
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_kernel_matches_reference_loop or masked_keys"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.splitlines()[-1].startswith("9 passed"), done.stdout[-3000:]


def test_cost_params_reference_defaults():
    # fixed charges, not config keys: no config line or config_change sets one
    assert EngineConfig.question_match_ms == 1610.0
    assert EngineConfig.qkv_match_ms == 15.0
    assert EngineConfig.qkv_load_ms == 1030.0
    assert EngineConfig.embed_ms == 40.0
    for key in ("question_match_ms", "qkv_match_ms", "qkv_load_ms", "embed_ms"):
        with pytest.raises(ConfigError, match="unknown config key"):
            EngineConfig().apply(key, "1.0")


def test_estimate_cost_totals_and_projection_reduction():
    cm = CostModel(CFG, EngineConfig())
    rep = cm.estimate_cost(l_total=20, l_pre=5, decode_tokens=3, loaded_slices=2,
                           qa_match=True, qkv_match=True, embeds=1)
    assert rep.prefill_flops == prefill_macs(CFG, 20, 5)
    assert rep.decode_flops == decode_macs(CFG, 20, 3)
    assert rep.total_flops == rep.prefill_flops + rep.decode_flops
    f = EngineConfig().flops_per_ms
    flops_ms = rep.prefill_flops / f + rep.decode_flops / f
    assert rep.total_ms == flops_ms + (1610.0 + 15.0) + 2 * 1030.0 + 40.0
    # each fixed charge alone, over the same FLOPs
    for charge, ms in ((dict(qa_match=True), 1610.0), (dict(qkv_match=True), 15.0),
                       (dict(loaded_slices=2), 2 * 1030.0), (dict(embeds=1), 40.0)):
        assert cm.estimate_cost(l_total=20, l_pre=5, decode_tokens=3, **charge).total_ms \
            == flops_ms + ms, charge


def test_estimate_cost_monotone_in_prefix():
    cm = CostModel(CFG, EngineConfig())
    costs = [cm.estimate_cost(l_total=30, l_pre=p).prefill_flops
             for p in range(0, 30, 5)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_latency_scale():
    config = EngineConfig()
    cm = CostModel(CFG, config)
    config.apply("latency_scale", "0.5")  # read at each estimate
    flops_ms = cm.estimate_cost(l_total=5).prefill_flops / config.flops_per_ms
    for charge, ms in ((dict(qa_match=True), 805.0), (dict(qkv_match=True), 7.5),
                       (dict(loaded_slices=1), 515.0), (dict(embeds=1), 20.0)):
        assert cm.estimate_cost(l_total=5, **charge).total_ms == flops_ms + ms, charge


def test_scripted_backend_exact_and_wildcard():
    # every entry is a wildcard: the first use of a new prompt takes the
    # template's next response and memoizes it; an exact digest is refused
    sb = ScriptedBackend(
        entries=[
            {"template": "t", "slots_digest": "*", "response": "first"},
            {"template": "t", "response": "second"},
        ],
        fallback="FB",
    )
    assert sb.generate("t", {"a": 2}) == "first"
    assert sb.generate("t", {"a": 2}) == "first"  # memoized, not "second"
    assert sb.generate("t", {"a": 3}) == "second"
    assert sb.generate("t", {"a": 3}) == "second"
    assert sb.generate("t", {"a": 4}) == "FB"
    assert sb.generate("other", {}) == "FB"
    assert sb.miss_count == 2
    with pytest.raises(ValueError, match="entry 0: slots_digest"):
        ScriptedBackend([{"template": "t", "slots_digest": "0123abcd", "response": "exact"}])


def test_scripted_backend_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        '{"fallback": "", "entries": [{"template": "x", "slots_digest": "*", "response": "r"}]}',
        encoding="utf-8",
    )
    sb = load_script(path)
    assert sb.generate("x", {}) == "r"


def test_qkv_tensors_validation_and_concat():
    shape = (CFG.layers, 2, 4, CFG.heads, CFG.head_dim)
    for bad in (np.zeros(shape, dtype=np.float64), np.zeros(shape[1:], dtype=np.float32),
                np.zeros((CFG.layers, 3) + shape[2:], dtype=np.float32)):
        with pytest.raises(ValueError):
            QkvTensors(bad)
    with pytest.raises(ValueError):
        QkvTensors.concat([])
    t = QkvTensors(np.zeros((CFG.layers, 2, 0, CFG.heads, CFG.head_dim), dtype=np.float32))
    assert t.token_count == 0 and t.layers == CFG.layers
    with pytest.raises(ValueError):
        QkvPrefix(t, 3)
    # concat joins the token axis into a new array, even for one part
    rng = np.random.default_rng(2)
    a = QkvTensors(rng.normal(size=shape).astype(np.float32))
    b = QkvTensors(rng.normal(size=(CFG.layers, 2, 2, CFG.heads, CFG.head_dim)).astype(np.float32))
    ab = QkvTensors.concat([a, b])
    assert ab.token_count == 6
    assert np.array_equal(ab.data[:, :, :4], a.data) and np.array_equal(ab.data[:, :, 4:], b.data)
    assert np.array_equal(ab.slice_tokens(4, 6).data, b.data)
    assert not np.shares_memory(QkvTensors.concat([a]).data, a.data)
    assert not np.shares_memory(a.slice_tokens(0, 4).data, a.data)
