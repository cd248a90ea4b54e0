import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache.backend import (
    CostModel,
    CostParams,
    CostReport,
    InferenceEvent,
    QkvPrefix,
    QkvTensors,
    ScriptedBackend,
    ToyModel,
    ToyModelConfig,
    decode_macs,
    prefill_macs,
)
from percache.engine import load_script

CFG = ToyModelConfig(layers=2, heads=2, head_dim=8, vocab_size=64, seed=11)


def _tokens(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CFG.vocab_size, size=n).tolist()


def test_config_validation():
    with pytest.raises(ValueError):
        ToyModelConfig(layers=0)
    with pytest.raises(ValueError):
        ToyModelConfig(head_dim=7)


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


@pytest.mark.parametrize("l_total,l_pre", [(1, 0), (6, 0), (6, 3), (10, 9), (10, 10)])
def test_prefill_macs_match_instrumented(l_total, l_pre):
    model = ToyModel(CFG)
    toks = _tokens(l_total, seed=l_total)
    if l_pre:
        full = model.prefill(toks).tensors
        prefix = QkvPrefix(full.slice_tokens(0, l_pre), l_pre)
    else:
        prefix = None
    model.mac_count = 0
    model.prefill(toks, prefix)
    assert model.mac_count == prefill_macs(CFG, l_total, l_pre)


@pytest.mark.parametrize("gen", [1, 2, 5])
def test_decode_macs_match_instrumented(gen):
    model = ToyModel(CFG)
    toks = _tokens(7, seed=gen)
    state = model.prefill(toks)
    model.mac_count = 0
    out = model.decode_ids(state, gen)
    assert len(out) == gen  # no accidental eos in toy decoding here
    assert model.mac_count == decode_macs(CFG, 7, gen)


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
    return ToyModel(ToyModelConfig(layers=1, heads=1, head_dim=2, vocab_size=1))


def _ref_mm(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    tmp = np.empty_like(out)
    for i in range(a.shape[1]):
        np.multiply(a[:, i : i + 1], b[i], out=tmp)
        out += tmp
    return out


def _ref_rmsnorm(x, gain):
    ss = np.zeros(x.shape[0], dtype=np.float32)
    for dcol in range(x.shape[1]):
        ss += x[:, dcol] * x[:, dcol]
    inv = np.float32(1.0) / np.sqrt(ss / np.float32(x.shape[1]) + np.float32(1e-5))
    return x * inv[:, None] * gain[None, :]


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
    w = e / np.sum(e, axis=2, keepdims=True)
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
    gain = _values(seed + 1, (dim,))
    got = _kernel_model()._rmsnorm(x, gain)
    assert _bits_equal(got, _ref_rmsnorm(x, gain)), (rows, dim)


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
    got = model._block_qkv(0, x, *model._rotary(positions))
    h = model._rmsnorm(x, model.g1[0])
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


def test_cost_params_reference_defaults():
    p = CostParams()
    assert p.question_match_ms == 1610.0
    assert p.qkv_match_ms == 15.0
    assert p.qkv_load_ms == 1030.0


def test_estimate_cost_totals_and_projection_reduction():
    cm = CostModel(CFG)
    ev = InferenceEvent(l_total=20, l_pre=5, decode_tokens=3, loaded_slices=2,
                        qa_match=True, qkv_match=True, embeds=1)
    rep = cm.estimate_cost(ev)
    assert rep.prefill_flops == prefill_macs(CFG, 20, 5)
    assert rep.decode_flops == decode_macs(CFG, 20, 3)
    assert rep.total_flops == rep.prefill_flops + rep.decode_flops
    assert rep.match_ms == 1610.0 + 15.0
    assert rep.load_ms == 2 * 1030.0
    assert rep.embed_ms == 40.0
    assert rep.total_ms == pytest.approx(
        rep.prefill_ms + rep.decode_ms + rep.match_ms + rep.load_ms + rep.embed_ms
    )


def test_estimate_cost_monotone_in_prefix():
    cm = CostModel(CFG)
    costs = [cm.estimate_cost(InferenceEvent(l_total=30, l_pre=p)).prefill_flops
             for p in range(0, 30, 5)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_latency_scale():
    cm = CostModel(CFG, CostParams(latency_scale=0.5))
    rep = cm.estimate_cost(InferenceEvent(l_total=5, qa_match=True, loaded_slices=1))
    assert rep.match_ms == 805.0 and rep.load_ms == 515.0


def test_cost_report_add():
    a = CostReport(prefill_flops=1, decode_flops=2, match_ms=3)
    b = CostReport(prefill_flops=10, load_ms=4)
    c = a.add(b)
    assert (c.prefill_flops, c.decode_flops, c.match_ms, c.load_ms) == (11, 2, 3, 4)


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
    shape = (CFG.layers, 3, 4, CFG.heads, CFG.head_dim)
    for bad in (np.zeros(shape, dtype=np.float64), np.zeros(shape[1:], dtype=np.float32),
                np.zeros((CFG.layers, 2) + shape[2:], dtype=np.float32)):
        with pytest.raises(ValueError):
            QkvTensors(bad)
    with pytest.raises(ValueError):
        QkvTensors.concat([])
    t = QkvTensors(np.zeros((CFG.layers, 3, 0, CFG.heads, CFG.head_dim), dtype=np.float32))
    assert t.token_count == 0 and t.layers == CFG.layers
    with pytest.raises(ValueError):
        QkvPrefix(t, 3)
    # concat joins the token axis into a new array, even for one part
    rng = np.random.default_rng(2)
    a = QkvTensors(rng.normal(size=shape).astype(np.float32))
    b = QkvTensors(rng.normal(size=(CFG.layers, 3, 2, CFG.heads, CFG.head_dim)).astype(np.float32))
    ab = QkvTensors.concat([a, b])
    assert ab.token_count == 6
    assert np.array_equal(ab.data[:, :, :4], a.data) and np.array_equal(ab.data[:, :, 4:], b.data)
    assert np.array_equal(ab.slice_tokens(4, 6).data, b.data)
    assert not np.shares_memory(QkvTensors.concat([a]).data, a.data)
    assert not np.shares_memory(a.slice_tokens(0, 4).data, a.data)
