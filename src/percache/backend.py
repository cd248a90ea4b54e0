"""Generation backends and the inference cost model.

ToyModel is a small pre-norm transformer (one fused Q/K/V linear, RoPE on
Q and K, causal attention, greedy decode) computed entirely in float32
with fixed accumulation order. That makes prefix reuse checkable
bit-for-bit: prefilling a suffix against cached Q/K/V slices produces
exactly the same values as recomputing the whole prompt. Prefill and
decode write each token's Q/K/V rows into one preallocated array shaped as
QkvTensors.data and attend over its rows; no step copies the past.

Every sum runs sequentially in index order, and each row's result does not
depend on how many rows are computed with it. The matmuls (the fused Q/K/V
projection among them), the attention scores and the attention V sum are
whole-array ``np.einsum`` calls without ``optimize``, and the RMSNorm sum of
squares is a ``np.cumsum``; prefill and decode run the same calls.
tests/test_backend.py checks each kernel, and the fused projection against
three separate ones, bit for bit against the per-column loop it replaced,
on random shapes, with the installed numpy (2.4.6 when this was written); a
numpy whose einsum or cumsum sums in another order fails there first.

ScriptedBackend returns canned text for prompt templates so prediction
and summarization flows stay deterministic in tests and trace replays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

MLP_MULT = 4


@dataclass(frozen=True)
class ToyModelConfig:
    layers: int = 2
    heads: int = 2
    head_dim: int = 8
    vocab_size: int = 512
    seed: int = 0x7031

    def __post_init__(self):
        if min(self.layers, self.heads, self.head_dim, self.vocab_size) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even (rotary pairs)")

    @property
    def dim(self) -> int:
        return self.heads * self.head_dim


@dataclass
class QkvTensors:
    """Q, K and V of every layer as one float32 array shaped
    (layers, 3, tokens, heads, head_dim), Q, K, V in that order on axis 1.
    Its C order is the payload of a slice file."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 5 or self.data.shape[1] != 3 or self.data.dtype != np.float32:
            raise ValueError("QKV data must be float32 (layers, 3, tokens, heads, head_dim)")

    @property
    def layers(self) -> int:
        return int(self.data.shape[0])

    @property
    def token_count(self) -> int:
        return int(self.data.shape[2])

    def slice_tokens(self, start: int, end: int) -> "QkvTensors":
        """A copy of token rows [start, end): the cache tree keeps it."""
        return QkvTensors(self.data[:, :, start:end].copy())

    @classmethod
    def concat(cls, parts: list["QkvTensors"]) -> "QkvTensors":
        """A new array, sharing no memory with the parts, even for one part."""
        if not parts:
            raise ValueError("nothing to concatenate")
        return cls(np.concatenate([p.data for p in parts], axis=2))


@dataclass
class QkvPrefix:
    """Concatenated cached tensors covering the first prefix_token_count tokens."""

    tensors: QkvTensors
    prefix_token_count: int

    def __post_init__(self):
        if self.prefix_token_count != self.tensors.token_count:
            raise ValueError("prefix_token_count must equal stored token count")


@dataclass
class PrefillState:
    """Decode-ready state: Q/K/V of every layer over the full prompt, single-owner."""

    tensors: QkvTensors
    last_hidden: np.ndarray  # (1, dim), final-norm output of the last token


class ToyModel:
    """Seeded-pseudorandom frozen transformer; immutable after construction."""

    def __init__(self, config: ToyModelConfig):
        self.config = config
        self.mac_count = 0
        rng = np.random.default_rng(config.seed)
        d = config.dim
        hidden = MLP_MULT * d
        f32 = lambda a: a.astype(np.float32)
        self.emb = f32(rng.normal(0.0, 1.0, (config.vocab_size, d)))
        std = 1.0 / math.sqrt(d)
        square = lambda: [f32(rng.normal(0.0, std, (d, d))) for _ in range(config.layers)]
        wq, wk, wv = square(), square(), square()
        # one (d, 3d) Q/K/V weight per layer; the only copy
        self.wqkv = [np.concatenate(w, axis=1) for w in zip(wq, wk, wv)]
        self.wo = square()
        self.w1 = [f32(rng.normal(0.0, std, (d, hidden))) for _ in range(config.layers)]
        self.w2 = [
            f32(rng.normal(0.0, 1.0 / math.sqrt(hidden), (hidden, d)))
            for _ in range(config.layers)
        ]
        self.g1 = [np.ones(d, dtype=np.float32) for _ in range(config.layers)]
        self.g2 = [np.ones(d, dtype=np.float32) for _ in range(config.layers)]
        self.gf = np.ones(d, dtype=np.float32)
        self.w_out = f32(rng.normal(0.0, std, (d, config.vocab_size)))
        half = config.head_dim // 2
        self.inv_freq = (10000.0 ** (-(np.arange(half) * 2.0 / config.head_dim))).astype(
            np.float32
        )

    # float32 matmul that accumulates over the contraction axis in index
    # order, so row results are identical no matter how many rows are present.
    # einsum without optimize keeps that order, except when b has a single
    # column, where it sums in another order; a zero second column, sliced
    # off again, keeps the order.
    def _mm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = b.shape[1]
        if n == 1:
            b = np.concatenate([b, np.zeros_like(b)], axis=1)
        out = np.einsum("sk,kn->sn", a, b, optimize=False)[:, :n]
        self.mac_count += a.shape[0] * a.shape[1] * n
        return out

    def _rmsnorm(self, x: np.ndarray, gain: np.ndarray) -> np.ndarray:
        # cumsum adds the squares column by column in order; no square is -0.0,
        # so its last column equals a loop that starts from +0.0
        ss = np.cumsum(x * x, axis=1)[:, -1]
        inv = np.float32(1.0) / np.sqrt(ss / np.float32(x.shape[1]) + np.float32(1e-5))
        return x * inv[:, None] * gain[None, :]

    def _rotary(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of the rotary angles, shaped (tokens, 1, head_dim // 2)."""
        angles = positions.astype(np.float32)[:, None] * self.inv_freq[None, :]
        return np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]

    def _rope(self, t: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
        """Rotate t (tokens, heads, head_dim) in place by _rotary's cos and
        sin; both halves are computed before either is written."""
        even = t[..., 0::2]
        odd = t[..., 1::2]
        t[..., 0::2], t[..., 1::2] = even * cos - odd * sin, even * sin + odd * cos

    def _attention(self, q: np.ndarray, k_full: np.ndarray, v_full: np.ndarray,
                   positions: np.ndarray) -> np.ndarray:
        s, heads, dh = q.shape
        total = k_full.shape[0]
        scale = np.float32(1.0 / math.sqrt(dh))
        mask = (positions[:, None] >= np.arange(total)[None, :])[:, None, :]
        # scores[s,h,t] summed over head_dim in index order from +0.0: with
        # head_dim the outermost axis of both contiguous operands, einsum
        # walks it in its outer loop and adds one product per step
        scores = np.einsum(
            "dsh,dht->sht",
            np.ascontiguousarray(q.transpose(2, 0, 1)),
            np.ascontiguousarray(k_full.transpose(2, 1, 0)),
            optimize=False,
        )
        scores = np.where(mask, scores * scale, np.float32(-np.inf))
        mx = np.max(scores, axis=2, keepdims=True)
        e = np.exp(scores - mx)
        w = e / np.sum(e, axis=2, keepdims=True)
        # V sum accumulated over key positions in order
        out = np.einsum("sht,thd->shd", w, v_full, optimize=False)
        self.mac_count += 2 * s * heads * total * dh
        return out

    def _block_qkv(self, layer: int, x: np.ndarray, cos: np.ndarray, sin: np.ndarray):
        """Q, K and V of x as one (3, tokens, heads, head_dim) view: one
        projection, then RoPE on the Q and K heads together."""
        heads, head_dim = self.config.heads, self.config.head_dim
        h = self._rmsnorm(x, self.g1[layer])
        qkv = self._mm(h, self.wqkv[layer]).reshape(x.shape[0], 3 * heads, head_dim)
        self._rope(qkv[:, : 2 * heads], cos, sin)
        return qkv.reshape(x.shape[0], 3, heads, head_dim).transpose(1, 0, 2, 3)

    def _block_tail(self, layer: int, x: np.ndarray, attn: np.ndarray) -> np.ndarray:
        s = x.shape[0]
        x = x + self._mm(attn.reshape(s, self.config.dim), self.wo[layer])
        h = self._rmsnorm(x, self.g2[layer])
        return x + self._mm(np.maximum(self._mm(h, self.w1[layer]), np.float32(0.0)),
                            self.w2[layer])

    def _buffer(self, rows: int) -> np.ndarray:
        """Uninitialised Q/K/V rows for every layer, as QkvTensors.data."""
        cfg = self.config
        return np.empty((cfg.layers, 3, rows, cfg.heads, cfg.head_dim), dtype=np.float32)

    def _layers(self, token_ids: np.ndarray, qkv: np.ndarray, start: int) -> np.ndarray:
        """The one layer loop of prefill and decode. Runs token_ids, at
        positions start onwards, through every layer: writes their Q/K/V
        into rows [start, end) of the qkv buffer (see _buffer), whose rows
        before start hold the past, and attends over rows [0, end). Returns
        the final-norm hidden state of the last token."""
        end = start + token_ids.shape[0]
        positions = np.arange(start, end)
        cos, sin = self._rotary(positions)
        x = self.emb[token_ids]
        for layer in range(self.config.layers):
            qkv[layer, :, start:end] = self._block_qkv(layer, x, cos, sin)
            attn = self._attention(qkv[layer, 0, start:end], qkv[layer, 1, :end],
                                   qkv[layer, 2, :end], positions)
            x = self._block_tail(layer, x, attn)
        return self._rmsnorm(x[-1:], self.gf)

    def prefill(self, tokens, prefix: QkvPrefix | None = None) -> PrefillState:
        """Run prefill, skipping projection/RoPE for cached prefix tokens.

        The returned state holds the whole prompt's Q/K/V: the prefix's
        cached rows followed by the recomputed ones, whose rotary positions
        are their positions in the full sequence.
        """
        token_ids = np.asarray(tokens, dtype=np.int64)
        total = int(token_ids.shape[0])
        if total == 0:
            raise ValueError("cannot prefill an empty prompt")
        pre = 0 if prefix is None else prefix.prefix_token_count
        if pre > total:
            raise ValueError("prefix longer than the prompt")
        cfg = self.config
        if pre and (prefix.tensors.layers, *prefix.tensors.data.shape[3:]) != (
                cfg.layers, cfg.heads, cfg.head_dim):
            raise ValueError("prefix shape does not match the model")  # or it would broadcast
        # always recompute at least the last token so the decode-ready hidden
        # state exists; its recomputed Q/K/V are bitwise-equal to cached values
        start = min(pre, total - 1)
        qkv = self._buffer(total)
        if start:
            qkv[:, :, :start] = prefix.tensors.data[:, :, :start]
        hidden = self._layers(token_ids[start:], qkv, start)
        return PrefillState(QkvTensors(qkv), hidden)

    def decode_ids(self, state: PrefillState, max_tokens: int,
                   eos_id: int | None = None) -> list[int]:
        """Greedy argmax decoding; stops at eos_id or max_tokens. The prompt's
        Q/K/V are copied once, into a buffer with a row for each step, so
        state is left unchanged."""
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        n = state.tensors.token_count
        qkv = self._buffer(n + max_tokens - 1)
        qkv[:, :, :n] = state.tensors.data
        hidden = state.last_hidden
        generated: list[int] = []
        for step in range(max_tokens):
            tok = int(np.argmax(self._mm(hidden, self.w_out)[0]))
            generated.append(tok)
            if tok == eos_id or step == max_tokens - 1:
                break
            hidden = self._layers(np.array([tok]), qkv, n + step)
        return generated


# ---------------------------------------------------------------------------
# scripted backend


class ScriptedBackend:
    """Deterministic canned responses for prompt templates.

    Each template has a queue of responses. The first use of a new prompt
    (template and slots) takes the next queued response and memoizes it, so
    the same prompt always gets the same response; an empty queue gives the
    fallback string and counts a miss. Every entry is a wildcard: one whose
    slots_digest is not "*" is refused as damaged.
    """

    def __init__(self, entries: list[dict] | None = None, fallback: str = ""):
        entries = [] if entries is None else entries
        if not isinstance(entries, list) or not isinstance(fallback, str):
            raise ValueError("need a list of entries and a string fallback")
        self.fallback = fallback
        self.miss_count = 0
        self._memo: dict[tuple[str, str], str] = {}
        self._queues: dict[str, list[str]] = {}
        for i, e in enumerate(entries):
            if not (isinstance(e, dict) and isinstance(e.get("template"), str)
                    and isinstance(e.get("response"), str)):
                raise ValueError(f"entry {i} needs a string template and response")
            if e.get("slots_digest", "*") != "*":
                raise ValueError(f"entry {i}: slots_digest must be \"*\"")
            self._queues.setdefault(e["template"], []).append(e["response"])

    def generate(self, template: str, slots: dict) -> str:
        prompt = (template, json.dumps(slots, sort_keys=True, ensure_ascii=False))
        if prompt in self._memo:
            return self._memo[prompt]
        queue = self._queues.get(template)
        if queue:
            self._memo[prompt] = response = queue.pop(0)
            return response
        self.miss_count += 1
        return self.fallback


# ---------------------------------------------------------------------------
# cost model


@dataclass
class CostParams:
    """Latency calibration: throughput plus per-item fixed costs.

    Fixed-cost defaults follow the measured per-operation latencies of the
    reference deployment (question match 1.61 s, QKV match 0.015 s, QKV
    load 1.03 s) behind a single scale factor; values are model
    milliseconds, never wall clock.
    """

    flops_per_ms: float = 1.0e6
    latency_scale: float = 1.0
    question_match_ms: float = 1610.0
    qkv_match_ms: float = 15.0
    qkv_load_ms: float = 1030.0
    embed_ms: float = 40.0


@dataclass
class CostReport:
    prefill_flops: float = 0.0
    decode_flops: float = 0.0
    prefill_ms: float = 0.0
    decode_ms: float = 0.0
    match_ms: float = 0.0
    load_ms: float = 0.0
    embed_ms: float = 0.0

    @property
    def total_flops(self) -> float:
        return self.prefill_flops + self.decode_flops

    @property
    def total_ms(self) -> float:
        return self.prefill_ms + self.decode_ms + self.match_ms + self.load_ms + self.embed_ms

    def add(self, other: "CostReport") -> "CostReport":
        return CostReport(
            self.prefill_flops + other.prefill_flops,
            self.decode_flops + other.decode_flops,
            self.prefill_ms + other.prefill_ms,
            self.decode_ms + other.decode_ms,
            self.match_ms + other.match_ms,
            self.load_ms + other.load_ms,
            self.embed_ms + other.embed_ms,
        )


@dataclass(frozen=True)
class InferenceEvent:
    """Descriptor of one inference: lengths, decode size, fixed-cost items."""

    l_total: int
    l_pre: int = 0
    decode_tokens: int = 0
    loaded_slices: int = 0
    qa_match: bool = False
    qkv_match: bool = False
    embeds: int = 0


def prefill_macs(cfg: ToyModelConfig, l_total: int, l_pre: int) -> int:
    """Exact multiply-add count of ToyModel.prefill (projection, attention,
    output projection, MLP); matches the instrumented counter. Prefill
    always recomputes the last token, so a prefix covering the whole
    prompt still costs one token."""
    suffix = l_total - min(l_pre, max(l_total - 1, 0))
    d = cfg.dim
    per_layer = 12 * suffix * d * d + 2 * suffix * l_total * d
    return cfg.layers * per_layer


def decode_macs(cfg: ToyModelConfig, l_total: int, gen_tokens: int) -> int:
    """Exact multiply-add count of ToyModel.decode_ids for gen_tokens emitted."""
    if gen_tokens <= 0:
        return 0
    d = cfg.dim
    total = gen_tokens * d * cfg.vocab_size
    for i in range(1, gen_tokens):
        total += cfg.layers * (12 * d * d + 2 * (l_total + i) * d)
    return total


class CostModel:
    def __init__(self, model_config: ToyModelConfig, params: CostParams | None = None):
        self.model_config = model_config
        self.params = params or CostParams()

    def estimate_cost(self, event: InferenceEvent) -> CostReport:
        p = self.params
        pf = float(prefill_macs(self.model_config, event.l_total, event.l_pre))
        df = float(decode_macs(self.model_config, event.l_total, event.decode_tokens))
        scale = p.latency_scale
        match_ms = scale * (
            (p.question_match_ms if event.qa_match else 0.0)
            + (p.qkv_match_ms if event.qkv_match else 0.0)
        )
        return CostReport(
            prefill_flops=pf,
            decode_flops=df,
            prefill_ms=pf / p.flops_per_ms,
            decode_ms=df / p.flops_per_ms,
            match_ms=match_ms,
            load_ms=scale * p.qkv_load_ms * event.loaded_slices,
            embed_ms=scale * p.embed_ms * event.embeds,
        )
