"""Engine: end-to-end query serving, cache population, and trace replay.

Serving path: embed the query, try the QA bank at tau_query, otherwise
retrieve top-k chunks, reuse the longest cached QKV prefix, prefill the
remainder, decode, and populate both cache layers. Background work
(prediction, deferred answering, conversions) runs only on idle ticks
via the scheduler.

Everything is deterministic: one engine instance processes events
strictly sequentially, and identical traces, configs, and seeds yield
byte-identical metrics streams.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .backend import (
    CostModel,
    CostParams,
    CostReport,
    InferenceEvent,
    QkvTensors,
    ScriptedBackend,
    ToyModel,
    ToyModelConfig,
)
from .config import EngineConfig
from .knowledge import BankError, KnowledgeBank, Segment, StorageError, jsonl_bytes, read_utf8
from .predictor import Predictor
from .qa import QaBank
from .retrieval import Retriever
from .scheduler import Scheduler
from .textcore import Embedding, HashEmbedder, TokenizerVocab, detokenize, tokenize

QA_HIT = "qa_hit"
QKV_PARTIAL = "qkv_partial"
COLD_MISS = "cold_miss"

# Boundary-dependent default vocabulary: multi-word tokens can straddle
# chunk joins, but none contains a newline, so the system prompt (which
# ends with one) never blends into the first chunk.
DEFAULT_VOCAB_TOKENS = [
    "the meeting", "the budget", "the review", "at noon", "on friday",
    "on monday", "next week", "action items", "follow up", "due date",
    "meeting", "budget", "review", "project", "report", "team", "notes",
    "agenda", "friday", "monday", "noon", "week", "items", "plan",
    "the ", " the", "and ", "ing ", "ed ", "what ", "when ", "who ",
    "what", "when", "who", "how", "why", "is", "on", "at", "to", "of",
    "a", "e", "i", "o", "u", "s", "t", "n", "r", " ", "?", ".",
]


class TraceError(ValueError):
    """Malformed or out-of-order trace event."""


# keys Engine copies only at construction: a config_change of one is rejected
FIXED_CONFIG_KEYS = frozenset({
    "model_layers", "model_heads", "model_head_dim", "seed", "vocab_file", "script_file",
    "chunk_words", "k_boundary", "alpha_fusion", "prediction_stride", "buffer_size",
    "t_batch", "t_quiet", "abstract_cap_bytes",
})


def load_script(path) -> ScriptedBackend:
    """The scripted backend in the JSON file path. A damaged file raises
    BankError naming it, and the line of a JSON syntax error."""
    text = read_utf8(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BankError(f"{path}:{exc.lineno}: malformed JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise BankError(f"{path}: need a JSON object")
    try:
        return ScriptedBackend(data.get("entries", []), data.get("fallback", ""))
    except ValueError as exc:
        raise BankError(f"{path}: {exc}") from exc


def open_bank(config: EngineConfig, bank_dir) -> KnowledgeBank:
    """Open the bank in bank_dir, or start an empty one there. The
    vocabulary is config.vocab_file if set, else the bank's own vocab.txt,
    else the default."""
    bank_dir = Path(bank_dir)
    if config.vocab_file:
        vocab = TokenizerVocab.from_text(read_utf8(config.vocab_file))
    elif (bank_dir / "vocab.txt").exists():
        vocab = None  # KnowledgeBank.load reads the bank's own
    else:
        vocab = TokenizerVocab(DEFAULT_VOCAB_TOKENS)
    return KnowledgeBank.load(
        bank_dir,
        vocab,
        config.qkv_limit_bytes,
        k_boundary=config.k_boundary,
        chunk_words_count=config.chunk_words,
    )


@dataclass(frozen=True)
class QueryOutcome:
    answer: str
    path: str  # QA_HIT | QKV_PARTIAL | COLD_MISS
    matched_count: int
    best_similarity: float
    cost: CostReport
    l_total: int = 0
    l_pre: int = 0
    discarded: int = 0


@dataclass(frozen=True)
class InferResult:
    answer: str | None
    cost: CostReport
    matched_count: int
    discarded: int
    l_total: int
    l_pre: int
    segments: list
    tokens: object
    tensors: QkvTensors


class Engine:
    def __init__(self, config: EngineConfig, bank_dir):
        self.config = config
        self.embedder = HashEmbedder()
        self.bank = open_bank(config, bank_dir)
        self.vocab = vocab = self.bank.vocab
        # the retriever's matrix holds the only copy of each chunk's embedding
        self.retriever = Retriever(self.embedder, alpha=config.alpha_fusion)
        self.retriever.reserve(len(self.bank.chunks))
        for chunk in self.bank.chunks.values():
            self.retriever.add_chunk(chunk.chunk_id, chunk.text, self.embedder.embed(chunk.text))
        self.eos_id = vocab.size
        model_cfg = ToyModelConfig(
            layers=config.model_layers,
            heads=config.model_heads,
            head_dim=config.model_head_dim,
            vocab_size=vocab.size + 1,
            seed=config.seed,
        )
        self.model = ToyModel(model_cfg)
        self.cost_model = CostModel(
            model_cfg,
            CostParams(flops_per_ms=config.flops_per_ms, latency_scale=config.latency_scale),
        )
        qa_path = self.bank.directory / "qa.jsonl"
        if qa_path.exists():
            self.qa = QaBank.load(qa_path, config.qa_limit_bytes, self.embedder)
        else:
            self.qa = QaBank(config.qa_limit_bytes)
        self.text_backend = (load_script(config.script_file)
                             if config.script_file else ScriptedBackend())
        self.predictor = Predictor(
            self.text_backend,
            stride=config.prediction_stride,
            abstract_cap_bytes=config.abstract_cap_bytes,
            buffer_size=config.buffer_size,
            t_batch=config.t_batch,
            t_quiet=config.t_quiet,
        )
        self.scheduler = Scheduler(self)
        # QA hits to answer at the next idle tick: text -> its embedding, in
        # arrival order
        self.deferred_queries: dict[str, Embedding] = {}
        self.metrics: list[dict] = []
        self.qa_hits = 0
        self.qkv_hits = 0
        self.flops_cum = 0.0
        # sequence numbers continue from the largest one the bank persisted
        self._op = max([n.last_used for n in self.bank.nodes.values()]
                       + [max(e.created_at, e.last_used) for e in self.qa.entries])
        self._last_at: float | None = None

    def _seq(self) -> int:
        self._op += 1
        return self._op

    # -- core inference -----------------------------------------------------

    def _assemble(self, query: str, chunk_ids: list[str]) -> list[Segment]:
        segments = [Segment("system", self.config.system_prompt)]
        for cid in chunk_ids:
            segments.append(Segment("chunk", self.bank.chunks[cid].text + " ", cid))
        segments.append(Segment("query", query))
        return segments

    def _infer(self, query: str, decode: bool, embedding: Embedding,
               restoring: bool = False) -> InferResult | None:
        """Retrieve (embedding is the query's), prefill (reusing the longest
        cached prefix), and optionally decode. Stores nothing in the caches;
        the match updates the matched nodes' LFU counts. When restoring,
        return None before the prefill if the bank could write no slice of
        the prompt without evicting."""
        ranked = self.retriever.retrieve_top_k(query, self.config.retrieval_k, embedding=embedding)
        chunk_ids = [r.chunk_id for r in ranked]
        prefix, matched, discarded = (None, 0, 0)
        if self.config.reuse_enabled:
            prefix, matched, discarded = self.bank.match_prefix(chunk_ids, self._seq())
        if restoring and not self.bank.may_restore(chunk_ids):
            return None
        segments = self._assemble(query, chunk_ids)
        tokens = tokenize("".join(s.text for s in segments), self.vocab)
        l_pre = prefix.prefix_token_count if prefix is not None else 0
        state = self.model.prefill(tokens.tokens, prefix)
        answer = None
        ids: list[int] = []
        if decode:
            ids = self.model.decode_ids(state, self.config.max_decode_tokens, self.eos_id)
            answer = detokenize([i for i in ids if i != self.eos_id], self.vocab)
        cost = self.cost_model.estimate_cost(InferenceEvent(
            l_total=len(tokens),
            l_pre=l_pre,
            decode_tokens=len(ids),
            loaded_slices=matched + 1 if prefix is not None else 0,
            qkv_match=self.config.reuse_enabled,
            embeds=1,
        ))
        return InferResult(
            answer, cost, matched, discarded, len(tokens), l_pre, segments, tokens, state.tensors,
        )

    def _populate_qkv(self, result: InferResult, allow_evict: bool = True) -> list[int]:
        try:
            return self.bank.slice_and_insert(
                result.segments, result.tokens, result.tensors, self._seq(),
                allow_evict=allow_evict,
            )
        except StorageError:
            return []

    def answer(self, text: str, decode: bool = True,
               embedding: Embedding | None = None) -> InferResult:
        """Infer text, then store its slices in the QKV tree (when reuse is
        enabled) and its answer in the QA bank (when QA is enabled). An
        existing entry for text takes a decoded answer in place and is no
        longer stale; an answer-less result never replaces a decoded answer.
        embedding, if given, is text's; otherwise text is embedded."""
        if embedding is None:
            embedding = self.embedder.embed(text)
        result = self._infer(text, decode, embedding)
        if self.config.reuse_enabled:
            self._populate_qkv(result)
        if self.config.qa_enabled:
            self.qa.insert(text, embedding, result.answer, self._seq())
        return result

    # -- serving path ---------------------------------------------------------

    def handle_query(self, text: str, now: float) -> QueryOutcome:
        self.predictor.phase = "serve"
        try:
            embedding = self.embedder.embed(text)
            entry, best_sim = (None, -1.0)
            if self.config.qa_enabled:
                entry, best_sim = self.qa.match(embedding, self.config.tau_query, self._seq())
            if entry is not None:
                self.qa_hits += 1
                if self.qa.get(text) is None:
                    self.deferred_queries.setdefault(text, embedding)
                self.predictor.note_user_query(text, now)
                cost = self.cost_model.estimate_cost(
                    InferenceEvent(l_total=0, qa_match=True, embeds=1)
                )
                return QueryOutcome(entry.answer, QA_HIT, 0, best_sim, cost)
            result = self.answer(text, embedding=embedding)
            cost = result.cost.add(self.cost_model.estimate_cost(
                InferenceEvent(l_total=0, qa_match=self.config.qa_enabled)
            ))
            self.predictor.note_user_query(text, now)
            if result.l_pre > 0:
                self.qkv_hits += 1
                path = QKV_PARTIAL
            else:
                path = COLD_MISS
            return QueryOutcome(
                result.answer, path, result.matched_count, best_sim, cost,
                result.l_total, result.l_pre, result.discarded,
            )
        finally:
            self.predictor.phase = "idle"

    # -- ingestion -------------------------------------------------------------

    def ingest_chunks(self, texts: list[str], now: float) -> tuple[list[str], list[str]]:
        """Chunk and store new knowledge; returns (all chunk ids touched,
        QA entries marked stale by refresh)."""
        new_chunks = []
        all_ids = []
        for text in texts:
            for chunk in self.bank.ingest_text(text):
                all_ids.append(chunk.chunk_id)
                if chunk.chunk_id not in self.retriever:
                    self.retriever.add_chunk(chunk.chunk_id, chunk.text, self.embedder.embed(chunk.text))
                    new_chunks.append(chunk)
        stale = []
        if new_chunks:
            new_ids = {c.chunk_id for c in new_chunks}
            stale = [
                e.query
                for e in self.qa.refresh(new_ids, self.retriever.cosine_top_k, self.config.k_refresh)
            ]
            self.predictor.note_chunks(new_chunks, now)
        return all_ids, stale

    # -- scheduler hooks ---------------------------------------------------------

    def populate_predicted(self, query: str, decode: bool) -> CostReport | None:
        """Cache population for one predicted query, decoding its answer if
        decode (the scheduler passes population_decodes); skipped when both
        caches are off or an answered entry already exists."""
        if not (self.config.qa_enabled or self.config.reuse_enabled):
            return None
        existing = self.qa.get(query)
        if existing is not None and (existing.answer is not None or not decode):
            return None
        return self.answer(query, decode).cost

    def restore_evicted_slices(self, flops_left: float) -> tuple[list[int], CostReport]:
        """QA->QKV conversion: while some slice in the tree is absent, take
        the QA entries oldest first, match each one's retrieval path, and
        re-prefill it unless the bank could write none of its slices without
        evicting. Writes are refused rather than allowed to evict, and a
        refilled slice must hash-match its original. Stops once its own
        FLOPs reach flops_left."""
        restored: list[int] = []
        total = CostReport()
        for entry in sorted(self.qa.entries, key=lambda e: (e.created_at, e.query)):
            if total.total_flops >= flops_left or not any(
                    not n.present and n.payload_sha for n in self.bank.nodes.values()):
                break
            result = self._infer(entry.query, False, entry.embedding, restoring=True)
            if result is None:
                continue
            restored.extend(self._populate_qkv(result, allow_evict=False))
            total = total.add(result.cost)
        return restored, total

    # -- trace replay ---------------------------------------------------------

    def apply_event(self, event: dict) -> dict:
        at = event.get("at")
        kind = event.get("kind")
        if not isinstance(at, (int, float)) or kind is None:
            raise TraceError("event needs numeric 'at' and 'kind'")
        if self._last_at is not None and at < self._last_at:
            raise TraceError(f"out-of-order event at {at} after {self._last_at}")
        if kind in ("query_arrival", "chunk_arrival") and not isinstance(event.get("text"), str):
            raise TraceError(f"{kind} needs a string 'text'")
        if kind == "config_change" and (
            not isinstance(event.get("field"), str) or event["field"] in FIXED_CONFIG_KEYS
        ):
            raise TraceError(f"config key {event.get('field')!r} cannot change mid-trace")
        self._last_at = at
        record: dict = {"at": at, "kind": kind}
        if kind == "query_arrival":
            outcome = self.handle_query(event["text"], at)
            self.flops_cum += outcome.cost.total_flops
            record.update(
                text=event["text"],
                path=outcome.path,
                answer=outcome.answer,
                best_similarity=outcome.best_similarity,
                matched_count=outcome.matched_count,
                discarded=outcome.discarded,
                l_total=outcome.l_total,
                l_pre=outcome.l_pre,
                prefill_flops=outcome.cost.prefill_flops,
                decode_flops=outcome.cost.decode_flops,
                total_ms=outcome.cost.total_ms,
            )
        elif kind == "chunk_arrival":
            ids, stale = self.ingest_chunks([event["text"]], at)
            record.update(chunk_ids=ids, stale_marked=stale)
        elif kind == "config_change":
            field, value = event["field"], event["value"]
            self.config.apply(field, str(value))
            if field == "qkv_limit_bytes":
                record["evicted_nodes"] = self.bank.set_limit(self.config.qkv_limit_bytes, self._seq())
            elif field == "qa_limit_bytes":
                record["evicted_entries"] = [
                    e.query for e in self.qa.set_limit(self.config.qa_limit_bytes)
                ]
            elif field in ("latency_scale", "flops_per_ms"):
                setattr(self.cost_model.params, field, getattr(self.config, field))
            record.update(field=field, value=value)
        elif kind == "idle_tick":
            try:
                budget = float(event.get("budget", 0.0))
            except (TypeError, ValueError) as exc:
                raise TraceError(f"idle_tick budget must be a number: {event['budget']!r}") from exc
            report = self.scheduler.idle_tick(budget, at)
            self.flops_cum += report.flops_spent
            record.update(asdict(report))
        else:
            raise TraceError(f"unknown event kind: {kind}")
        record.update(
            qa_entries=len(self.qa.entries),
            qa_used_bytes=self.qa.used_bytes,
            qkv_used_bytes=self.bank.ledger.used_bytes,
            qa_hits=self.qa_hits,
            qkv_hits=self.qkv_hits,
            flops_cum=self.flops_cum,
        )
        self.metrics.append(record)
        return record

    def run_trace(self, events: list[dict]) -> list[dict]:
        return [self.apply_event(e) for e in events]

    def persist(self) -> None:
        self.bank.persist()
        self.qa.persist(self.bank.directory / "qa.jsonl")

    def write_metrics(self, path) -> None:
        Path(path).write_bytes(jsonl_bytes(self.metrics))
