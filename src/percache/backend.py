"""Generation backends and the inference cost model.

ToyModel is a small pre-norm transformer (one fused Q/K/V linear, RoPE on
Q and K, causal attention, greedy decode) computed entirely in float32
with fixed accumulation order. That makes prefix reuse checkable
bit-for-bit: prefilling a suffix against cached K/V slices produces
exactly the same values as recomputing the whole prompt. Prefill and
decode write each token's K/V rows into one preallocated array shaped as
QkvTensors.data and attend over its rows; no step copies the past.

Every sum runs sequentially in index order, and each row's result does not
depend on how many rows are computed with it. The matmuls (the fused Q/K/V
projection among them), the attention scores and the attention V sum are
whole-array ``np.einsum`` calls without ``optimize``. Each keeps an axis it
does not sum innermost and contiguous, so each call of einsum's inner loop
adds one product to every element of a run of outputs, and the summed axis
advances in index order in an outer loop, from +0.0; with the summed axis
innermost and contiguous, einsum's reduction loop would keep several
partial sums and change the bits. The innermost axes are: the output
column for a matmul (``"sk,kn->sn"``); the key for the scores
(``"shd,dht->sht"``); and for the V sum, rows once they reach 1.5
head_dim (``"hts,dth->dhs"``), else head_dim (``"sht,thd->shd"``), which
keeps the run being added to in cache. The softmax denominator is a
``np.add.reduce`` over the outermost axis of a key-major copy, and the
RMSNorm sum of squares an ``np.add.accumulate`` along each row. Prefill and
decode share one layer loop.
In prefill its last layer writes every new row's K/V but runs attention,
the output projection and the MLP for the last row only, the one whose
output is read. Decode verifies drafted tokens in passes that read every
row's output; by the same row independence, its ids are those of one row
per step.
tests/test_backend.py checks each kernel, and the fused projection against
three separate ones, bit for bit against the per-column loop it replaced,
on random shapes, with the installed numpy (2.4.6 when this was written); a
numpy whose einsum or accumulate sums in another order fails there first.

ScriptedBackend returns canned text for prompt templates so prediction
and summarization flows stay deterministic in tests and trace replays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .textcore import encodes_utf8

MLP_MULT = 4
ONE = np.float32(1.0)
RMS_EPS = np.float32(1e-5)


@dataclass(frozen=True)
class ToyModelConfig:
    """Positive dimensions and an even head_dim, as Engine builds it from a
    validated EngineConfig; nothing here checks them again."""

    layers: int
    heads: int
    head_dim: int
    vocab_size: int
    seed: int

    @property
    def dim(self) -> int:
        return self.heads * self.head_dim


@dataclass
class QkvTensors:
    """K and V of every layer as one float32 array shaped (layers, 2,
    tokens, heads, head_dim); no Q, since no step reads a past row's Q.
    Its C order is the payload of a slice file."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 5 or self.data.shape[1] != 2 or self.data.dtype != np.float32:
            raise ValueError("K/V data must be float32 (layers, 2, tokens, heads, head_dim)")

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
    """Decode-ready state: K/V of every layer over the full prompt, single-owner."""

    tensors: QkvTensors
    last_hidden: np.ndarray  # (1, dim), final-norm output of the last token


class ToyModel:
    """Seeded-pseudorandom frozen transformer. Its weights are immutable
    after construction; the only state that changes is the rotary cos/sin
    table, which grows to the largest position seen (see _rotary), and
    mac_count."""

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
        self.w_out = f32(rng.normal(0.0, std, (d, config.vocab_size)))
        half = config.head_dim // 2
        self.inv_freq = (10000.0 ** (-(np.arange(half) * 2.0 / config.head_dim))).astype(
            np.float32
        )
        self._cos = self._sin = np.empty((0, 1, half), dtype=np.float32)  # see _rotary

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

    def _rmsnorm(self, x: np.ndarray) -> np.ndarray:
        # no gain: the toy model's would be all ones, which changes no bit
        # add.accumulate (what cumsum runs) adds the squares column by column
        # in order; no square is -0.0, so its last column equals a loop that
        # starts from +0.0
        ss = np.add.accumulate(x * x, axis=1)[:, -1]
        inv = ONE / np.sqrt(ss / np.float32(x.shape[1]) + RMS_EPS)
        return x * inv[:, None]

    def _rotary(self, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """cos and sin of the rotary angles of positions [start, end), shaped
        (tokens, 1, head_dim // 2): views of a table over positions [0, n),
        built with the same float32 ops as for those positions alone, since
        each element's cos and sin depend only on its angle. An end past n
        rebuilds the table at least twice as long."""
        if end > self._cos.shape[0]:
            n = max(end, 2 * self._cos.shape[0])
            angles = np.arange(n).astype(np.float32)[:, None] * self.inv_freq[None, :]
            self._cos, self._sin = np.cos(angles)[:, None, :], np.sin(angles)[:, None, :]
        return self._cos[start:end], self._sin[start:end]

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
        # scores[s,h,t] summed over head_dim in index order from +0.0: the key
        # axis is innermost and contiguous in K's copy and in the output, so
        # einsum walks head_dim in an outer loop and adds one product per
        # step to a row of scores that stays in cache
        scores = np.einsum("shd,dht->sht", q,
                           np.ascontiguousarray(k_full.transpose(2, 1, 0)), optimize=False)
        scores *= np.float32(1.0 / math.sqrt(dh))
        first = positions[0]
        if first < total - 1:  # some key lies after some row
            # keys before the first row's position are visible to every row
            after = (positions[:, None] < np.arange(first, total)[None, :])[:, None, :]
            np.copyto(scores[:, :, first:], np.float32(-np.inf), where=after)
        scores -= np.max(scores, axis=2, keepdims=True)
        e = np.exp(scores, out=scores)
        # the denominator summed over key positions in index order. np.sum
        # over the last axis sums pairwise, so a row's rounding would depend
        # on how many masked keys follow it. With the key axis outermost and
        # contiguous, add.reduce adds one (s, heads) row per step; a single
        # (s, heads) element leaves it one axis, which it sums pairwise too,
        # so that case accumulates instead.
        e_keys = np.ascontiguousarray(e.transpose(2, 0, 1))
        denom = (np.add.reduce(e_keys, axis=0) if s * heads > 1
                 else np.add.accumulate(e_keys, axis=0)[-1])
        e /= denom[:, :, None]
        # the V sum over key positions in index order: einsum walks the key
        # axis outside its inner loop, which runs along rows once they reach
        # 1.5 head_dim, else along head_dim, contiguous in the output, and
        # adds one product per step to a run of outputs that stays in cache.
        # The rows-innermost layout, with the copy its transposed output
        # costs _block_tail, overtakes at about that point (README)
        if 2 * s >= 3 * dh:
            out = np.einsum("hts,dth->dhs", np.ascontiguousarray(e.transpose(1, 2, 0)),
                            np.ascontiguousarray(v_full.transpose(2, 0, 1)),
                            optimize=False).transpose(2, 1, 0)
        else:
            out = np.einsum("sht,thd->shd", e, v_full, optimize=False)
        self.mac_count += 2 * s * heads * total * dh
        return out

    def _block_qkv(self, layer: int, x: np.ndarray, cos: np.ndarray, sin: np.ndarray):
        """Q, K and V of x as one (3, tokens, heads, head_dim) view: one
        projection, then RoPE on the Q and K heads together."""
        heads, head_dim = self.config.heads, self.config.head_dim
        h = self._rmsnorm(x)
        qkv = self._mm(h, self.wqkv[layer]).reshape(x.shape[0], 3 * heads, head_dim)
        self._rope(qkv[:, : 2 * heads], cos, sin)
        return qkv.reshape(x.shape[0], 3, heads, head_dim).transpose(1, 0, 2, 3)

    def _block_tail(self, layer: int, x: np.ndarray, attn: np.ndarray) -> np.ndarray:
        s = x.shape[0]
        x = x + self._mm(attn.reshape(s, self.config.dim), self.wo[layer])
        h = self._rmsnorm(x)
        return x + self._mm(np.maximum(self._mm(h, self.w1[layer]), np.float32(0.0)),
                            self.w2[layer])

    def _buffer(self, rows: int) -> np.ndarray:
        """Uninitialised K/V rows for every layer, as QkvTensors.data."""
        cfg = self.config
        return np.empty((cfg.layers, 2, rows, cfg.heads, cfg.head_dim), dtype=np.float32)

    def _layers(self, token_ids: np.ndarray, kv: np.ndarray, start: int,
                every_row: bool = False) -> np.ndarray:
        """The one layer loop of prefill and decode. Runs token_ids, at
        positions start onwards, through every layer: writes their K/V into
        rows [start, end) of the kv buffer (see _buffer), whose rows before
        start hold the past, and attends with their own Q over rows
        [0, end). Returns the final-norm hidden state of the last token, or
        of every token if every_row.

        Unless every_row, the last layer's output is read only for the last
        token, so after writing every row's K/V it runs attention and the
        block tail for that row alone. A decode pass that verifies drafts
        reads every row's output."""
        end = start + token_ids.shape[0]
        positions = np.arange(start, end)
        cos, sin = self._rotary(start, end)
        x = self.emb[token_ids]
        last = self.config.layers - 1
        for layer in range(self.config.layers):
            qkv = self._block_qkv(layer, x, cos, sin)
            q, kv[layer, :, start:end] = qkv[0], qkv[1:]
            if layer == last and not every_row:
                x, q, positions, start = x[-1:], q[-1:], positions[-1:], end - 1
            attn = self._attention(q, kv[layer, 0, :end], kv[layer, 1, :end], positions)
            x = self._block_tail(layer, x, attn)
        return self._rmsnorm(x)

    def prefill(self, tokens, prefix: QkvPrefix | None = None) -> PrefillState:
        """Run prefill, skipping projection/RoPE for cached prefix tokens.

        The returned state holds the whole prompt's K/V: the prefix's
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
        # state exists; its recomputed K/V are bitwise-equal to cached values
        start = min(pre, total - 1)
        kv = self._buffer(total)
        if start:
            kv[:, :, :start] = prefix.tensors.data[:, :, :start]
        hidden = self._layers(token_ids[start:], kv, start)
        return PrefillState(QkvTensors(kv), hidden)

    def decode_ids(self, state: PrefillState, max_tokens: int, eos_id: int | None = None,
                   drafts: dict[int, int] | None = None,
                   passes: list[tuple[int, int]] | None = None) -> list[int]:
        """Greedy argmax decoding; stops at eos_id or max_tokens. Returns
        the emitted ids.

        drafts maps a token to the token that followed it before. Each pass
        runs the last emitted token and the chain of drafts after it
        through _layers as one batch. It emits row 0's argmax, and row
        i + 1's after row i's argmax confirmed the draft in row i + 1: the
        longest confirmed prefix of the chain, then one token of argmax's
        own. The chain stops where drafts has no entry, before eos_id, and
        where its rows could emit past max_tokens. Since no row's result
        depends on how many rows are computed with it, the ids are those
        of decoding one row per pass, bit for bit, whatever drafts holds.
        Each emitted token is recorded in drafts as the successor of the
        one before it; without drafts every pass runs one row.

        The prompt's K/V are copied once, into a buffer with a row for
        each step, so state is left unchanged. A rejected draft's rows lie
        past the accepted point, where the next pass overwrites them.
        passes, if given, gets (start, rows) of each pass: decode_macs
        charges them."""
        if max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        n = state.tensors.token_count
        kv = self._buffer(n + max_tokens - 1)
        kv[:, :, :n] = state.tensors.data
        table = {} if drafts is None else drafts
        generated = [int(np.argmax(self._mm(state.last_hidden, self.w_out)[0]))]
        while generated[-1] != eos_id and len(generated) < max_tokens:
            rows = [generated[-1]]
            while len(generated) + len(rows) < max_tokens:
                draft = table.get(rows[-1])
                if draft is None or draft == eos_id:
                    break
                rows.append(draft)
            start = n + len(generated) - 1
            if passes is not None:
                passes.append((start, len(rows)))
            hidden = self._layers(np.array(rows), kv, start, every_row=True)
            for i, tok in enumerate(np.argmax(self._mm(hidden, self.w_out), axis=1).tolist()):
                generated.append(tok)
                if drafts is not None:
                    drafts[rows[i]] = tok
                if i + 1 == len(rows) or tok != rows[i + 1]:
                    break
        return generated


# ---------------------------------------------------------------------------
# scripted backend


class ScriptedBackend:
    """Deterministic canned responses for prompt templates.

    Each template has a queue of responses. The first use of a new prompt
    (template and slots) takes the next queued response and memoizes it, so
    the same prompt always gets the same response; an empty queue gives the
    fallback string and counts a miss. Every entry is a wildcard: one whose
    slots_digest is not "*" is refused as damaged, as is a template,
    response or fallback that UTF-8 cannot encode.
    """

    def __init__(self, entries: list[dict] | None = None, fallback: str = ""):
        entries = [] if entries is None else entries
        if not (isinstance(entries, list) and isinstance(fallback, str) and encodes_utf8(fallback)):
            raise ValueError("need a list of entries and a string fallback UTF-8 can encode")
        self.fallback = fallback
        self.miss_count = 0
        self._memo: dict[tuple[str, str], str] = {}
        self._queues: dict[str, list[str]] = {}
        for i, e in enumerate(entries):
            if not (isinstance(e, dict) and isinstance(e.get("template"), str)
                    and isinstance(e.get("response"), str)
                    and encodes_utf8(e["template"]) and encodes_utf8(e["response"])):
                raise ValueError(f"entry {i} needs a string template and response UTF-8 can encode")
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


@dataclass(frozen=True)
class CostReport:
    """One estimate of CostModel: its FLOPs and its total modeled ms."""

    prefill_flops: float
    decode_flops: float
    total_ms: float

    @property
    def total_flops(self) -> float:
        return self.prefill_flops + self.decode_flops


def prefill_macs(cfg: ToyModelConfig, l_total: int, l_pre: int) -> int:
    """Exact multiply-add count of ToyModel.prefill; matches the
    instrumented counter. Every layer but the last runs the Q/K/V
    projection, attention, output projection and MLP (12 d^2 + 2 T d per
    row) for each recomputed row; the last runs the projection for each
    row (3 d^2) and the rest for the last row only (9 d^2 + 2 T d).
    Prefill always recomputes the last token, so a prefix covering the
    whole prompt still costs one token; an empty prompt costs nothing."""
    suffix = l_total - min(l_pre, max(l_total - 1, 0))
    if suffix == 0:
        return 0
    d = cfg.dim
    full_layer = 12 * suffix * d * d + 2 * suffix * l_total * d
    last_layer = 3 * suffix * d * d + 9 * d * d + 2 * l_total * d
    return (cfg.layers - 1) * full_layer + last_layer


def decode_macs(cfg: ToyModelConfig, l_total: int, gen_tokens: int,
                passes: list[tuple[int, int]] | None = None) -> int:
    """Exact multiply-add count of ToyModel.decode_ids for gen_tokens
    emitted after an l_total-token prompt: the first token's logits, then
    every row of every pass, as decode_ids reports them in its passes
    list. A pass of r rows from position p runs every layer for each row,
    attending over p + r keys (12 d^2 + 2 (p + r) d per row and layer),
    and the logits of each row, accepted or not. Without passes, each
    token after the first runs a one-row pass, as decoding without drafts
    does."""
    if gen_tokens <= 0:
        return 0
    if passes is None:
        passes = [(l_total + i, 1) for i in range(gen_tokens - 1)]
    d = cfg.dim
    total = d * cfg.vocab_size
    for start, rows in passes:
        total += rows * (cfg.layers * (12 * d * d + 2 * (start + rows) * d) + d * cfg.vocab_size)
    return total


class CostModel:
    """Modeled cost of inference at model_config's shape. params is the
    engine's EngineConfig, read at each estimate, so a config_change of
    flops_per_ms or latency_scale applies from the next one."""

    def __init__(self, model_config: ToyModelConfig, params):
        self.model_config = model_config
        self.params = params

    def estimate_cost(self, l_total: int, l_pre: int = 0, decode_tokens: int = 0,
                      loaded_slices: int = 0, qa_match: bool = False, qkv_match: bool = False,
                      embeds: int = 0,
                      decode_passes: list[tuple[int, int]] | None = None) -> CostReport:
        """The cost of one inference over an l_total-token prompt whose
        first l_pre tokens are cached, decoding decode_tokens in
        decode_passes (see decode_macs), plus the fixed charges of
        EngineConfig, each times latency_scale: loaded_slices slice loads,
        a QA and a QKV match, and embeds query embeddings."""
        p = self.params
        pf = float(prefill_macs(self.model_config, l_total, l_pre))
        df = float(decode_macs(self.model_config, l_total, decode_tokens, decode_passes))
        scale = p.latency_scale
        match_ms = ((scale * p.question_match_ms if qa_match else 0.0)
                    + (scale * p.qkv_match_ms if qkv_match else 0.0))
        total_ms = (pf / p.flops_per_ms + df / p.flops_per_ms + match_ms
                    + scale * p.qkv_load_ms * loaded_slices + scale * p.embed_ms * embeds)
        return CostReport(pf, df, total_ms)
