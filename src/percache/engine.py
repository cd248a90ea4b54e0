"""Engine: end-to-end query serving, cache population, and trace replay.

Serving path: embed the query, try the QA bank at tau_query, otherwise
retrieve top-k chunks, reuse the longest cached QKV prefix, prefill the
remainder, decode, and populate both cache layers. Background work
(prediction, deferred answering, conversions) runs only on idle ticks
via the scheduler. The QA->QKV conversion restores evicted tree nodes
one by one from their kept token ids, running no retrieval or match, so
idle work never counts as a user retrieval in the LFU counts. A tree is
kept only under the stamp of the slice format, model and system prompt
its rows were computed for.

Everything is deterministic: one engine instance processes events
strictly sequentially, and identical traces, configs, and seeds yield
byte-identical metrics streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .backend import (
    CostModel,
    CostParams,
    CostReport,
    QkvPrefix,
    QkvTensors,
    ScriptedBackend,
    ToyModel,
    ToyModelConfig,
)
from .config import EngineConfig
from .knowledge import (SLICE_VERSION, BankError, KnowledgeBank, Segment, StorageError,
                        jsonl_bytes, read_utf8, slice_bytes)
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


def _is_number(value) -> bool:
    """A JSON number a trace can order or budget by: not NaN, not a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


# keys Engine copies only at construction: a config_change of one is rejected
FIXED_CONFIG_KEYS = frozenset({
    "model_layers", "model_heads", "model_head_dim", "seed", "vocab_file", "script_file",
    "chunk_words", "alpha_fusion", "prediction_stride", "buffer_size",
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
    return KnowledgeBank.load(bank_dir, vocab, config.qkv_limit_bytes,
                              chunk_words_count=config.chunk_words)


@dataclass(frozen=True)
class QueryOutcome:
    answer: str | None  # None when answer was asked not to decode
    path: str  # QA_HIT | QKV_PARTIAL | COLD_MISS
    matched_count: int
    best_similarity: float  # of the QA match; -1.0 from answer, which runs none
    cost: CostReport
    l_total: int = 0
    l_pre: int = 0
    discarded: int = 0  # cached tokens of the matched chain not reused


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
        # decode drafts: each token's successor in the latest decode that
        # emitted it. In memory only, filled by every decode of this engine
        self.drafts: dict[int, int] = {}
        # a slice of another shape, or kept ids outside the vocabulary, is a
        # damaged file (the stamp covers the model and the vocabulary size)
        shape = (model_cfg.layers, model_cfg.heads, model_cfg.head_dim)
        if any((n.present and (n.tensors.layers, *n.tensors.data.shape[3:]) != shape)
               or any(not 0 <= i < vocab.size for i in n.token_ids or ())
               for n in self.bank.nodes.values()):
            self.bank.drop_tree()
        self._check_stamp()
        self.cost_model = CostModel(
            model_cfg,
            CostParams(flops_per_ms=config.flops_per_ms, latency_scale=config.latency_scale),
        )
        self.qa = QaBank.load(self.bank.directory / "qa.jsonl", config.qa_limit_bytes, self.embedder)
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

    def _check_stamp(self) -> list[int]:
        """Stamp the tree with what its rows depend on: the slice format, the
        model config and the system prompt. A tree stamped otherwise is
        dropped first; returns the dropped node ids."""
        key = json.dumps([SLICE_VERSION, asdict(self.model.config), self.config.system_prompt])
        old, self.bank.stamp = self.bank.stamp, hashlib.sha256(key.encode("utf-8")).hexdigest()
        return [] if old == self.bank.stamp else self.bank.drop_tree()

    # -- core inference -----------------------------------------------------

    def _assemble(self, query: str, chunk_ids: list[str]) -> list[Segment]:
        return ([Segment(self.config.system_prompt)]
                + [Segment(self.bank.chunks[cid].text + " ", cid) for cid in chunk_ids]
                + [Segment(query)])

    def answer(self, text: str, decode: bool = True,
               embedding: Embedding | None = None) -> QueryOutcome:
        """Serve text past the QA bank: retrieve (embedding is text's, or
        text is embedded), prefill the prompt reusing the longest cached
        prefix of its token ids, and decode if decode. Then store its slices
        in the QKV tree (when reuse is enabled) and its answer in the QA
        bank (when QA is enabled). An existing entry for text takes a
        decoded answer in place and is no longer stale; an answer-less
        result never replaces a decoded answer. The match updates the
        reused nodes' LFU counts."""
        if embedding is None:
            embedding = self.embedder.embed(text)
        ranked = self.retriever.retrieve_top_k(text, self.config.retrieval_k, embedding=embedding)
        chunk_ids = [r.chunk_id for r in ranked]
        segments = self._assemble(text, chunk_ids)
        tokens = tokenize("".join(s.text for s in segments), self.vocab)
        prefix, matched, discarded = (None, 0, 0)
        if self.config.reuse_enabled:
            prefix, matched, discarded = self.bank.match_prefix(chunk_ids, tokens, self._seq())
        l_pre = prefix.prefix_token_count if prefix is not None else 0
        state = self.model.prefill(tokens, prefix)
        answer, ids, passes = None, [], []
        if decode:
            ids = self.model.decode_ids(state, self.config.max_decode_tokens, self.eos_id,
                                        self.drafts, passes)
            answer = detokenize([i for i in ids if i != self.eos_id], self.vocab)
        cost = self.cost_model.estimate_cost(
            l_total=len(tokens), l_pre=l_pre, decode_tokens=len(ids),
            loaded_slices=matched + 1 if prefix is not None else 0,
            qkv_match=self.config.reuse_enabled, embeds=1, decode_passes=passes,
        )
        if self.config.reuse_enabled:
            try:
                self.bank.slice_and_insert(segments, tokens, state.tensors, self._seq())
            except StorageError:
                pass  # the prompt's slices exceed the whole budget
        if self.config.qa_enabled:
            # keys from the cosine row that retrieval just computed: no second scan
            keys = (self.retriever.cosine_keys(embedding, self.config.k_refresh)
                    if answer is not None else None)
            self.qa.insert(text, embedding, answer, self._seq(), keys)
        return QueryOutcome(answer, QKV_PARTIAL if l_pre > 0 else COLD_MISS, matched, -1.0,
                            cost, len(tokens), l_pre, discarded)

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
                cost = self.cost_model.estimate_cost(l_total=0, qa_match=True, embeds=1)
                return QueryOutcome(entry.answer, QA_HIT, 0, best_sim, cost)
            outcome = self.answer(text, embedding=embedding)
            self.predictor.note_user_query(text, now)
            if outcome.path == QKV_PARTIAL:
                self.qkv_hits += 1
            return replace(outcome, best_similarity=best_sim, cost=outcome.cost.add(
                self.cost_model.estimate_cost(l_total=0, qa_match=self.config.qa_enabled)))
        finally:
            self.predictor.phase = "idle"

    # -- ingestion -------------------------------------------------------------

    def ingest_chunks(self, texts: list[str], now: float) -> tuple[list[str], list[str]]:
        """Chunk and store new knowledge; returns (all chunk ids touched,
        QA entries marked stale by refresh)."""
        new_chunks = []
        all_ids = []
        since = len(self.retriever)
        for text in texts:
            for chunk in self.bank.ingest_text(text):
                all_ids.append(chunk.chunk_id)
                if chunk.chunk_id not in self.retriever:
                    self.retriever.add_chunk(chunk.chunk_id, chunk.text, self.embedder.embed(chunk.text))
                    new_chunks.append(chunk)
        stale = []
        if new_chunks:
            stale = [e.query for e in self.qa.refresh(self.retriever, since, self.config.k_refresh)]
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
        """QA->QKV conversion, node by node, from each node's kept token
        ids. Absent nodes with kept ids go in LFU order, most retrieved
        first, which puts every ancestor before its descendants. A node is
        skipped while its parent is absent, the slice its kept ids make
        (not the manifest's byte_size) does not fit the free space, or its
        root path kept no ids or no token at all;
        otherwise its root path's ids are prefilled behind the present
        ancestors' slices, and refill puts its rows back if they fit: they
        equal the evicted rows bit for bit, as cached prefill equals
        recomputation. Moves no LFU count. Stops once its own FLOPs reach
        flops_left."""
        bank, restored, total = self.bank, [], CostReport()
        cfg = self.model.config
        absent = sorted((n for n in bank.nodes.values()
                         if not n.present and n.token_ids is not None),
                        key=lambda n: (-n.retrieval_count, n.node_id))
        for node in absent:
            if total.total_flops >= flops_left:
                break
            path = [node]  # root first
            while path[0].parent is not None:
                path.insert(0, path[0].parent)
            kept = [n.token_ids for n in path]
            size = slice_bytes(cfg.layers, len(node.token_ids), cfg.heads, cfg.head_dim)
            if (None in kept or (node.parent is not None and not node.parent.present)
                    or not bank.ledger.fits(size) or not any(kept)):
                continue
            ids = sum(kept, ())
            cached = path[: [n.present for n in path].index(False)]
            l_pre = sum(len(n.token_ids) for n in cached)
            state = self.model.prefill(ids, QkvPrefix(
                QkvTensors.concat([n.tensors for n in cached]), l_pre) if cached else None)
            total = total.add(self.cost_model.estimate_cost(
                l_total=len(ids), l_pre=l_pre, loaded_slices=len(cached)))
            rows = state.tensors.slice_tokens(len(ids) - len(node.token_ids), len(ids))
            if bank.refill(node, rows):
                restored.append(node.node_id)
        return restored, total

    # -- trace replay ---------------------------------------------------------

    def apply_event(self, event: dict) -> dict:
        at = event.get("at")
        kind = event.get("kind")
        if not _is_number(at) or kind is None:
            raise TraceError("event needs numeric 'at' and 'kind'")
        if self._last_at is not None and at < self._last_at:
            raise TraceError(f"out-of-order event at {at} after {self._last_at}")
        if kind in ("query_arrival", "chunk_arrival") and not isinstance(event.get("text"), str):
            raise TraceError(f"{kind} needs a string 'text'")
        if kind == "query_arrival" and not event["text"]:
            raise TraceError("query_arrival needs a non-empty 'text'")
        if kind == "config_change" and (
            not isinstance(event.get("field"), str) or event["field"] in FIXED_CONFIG_KEYS
        ):
            raise TraceError(f"config key {event.get('field')!r} cannot change mid-trace")
        if kind == "config_change" and type(event.get("value")) not in (str, int, float, bool):
            raise TraceError("config_change needs a string, number or boolean 'value'")
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
            if field == "system_prompt":  # the tree's rows may follow another prompt
                record["evicted_nodes"] = self._check_stamp()
            elif field == "qkv_limit_bytes":
                record["evicted_nodes"] = self.bank.set_limit(self.config.qkv_limit_bytes)
            elif field == "qa_limit_bytes":
                record["evicted_entries"] = [
                    e.query for e in self.qa.set_limit(self.config.qa_limit_bytes)
                ]
            elif field in ("latency_scale", "flops_per_ms"):
                setattr(self.cost_model.params, field, getattr(self.config, field))
            record.update(field=field, value=value)
        elif kind == "idle_tick":
            budget = event.get("budget", 0.0)
            if not _is_number(budget):
                raise TraceError(f"idle_tick budget must be a number: {budget!r}")
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
