"""Engine: end-to-end query serving, cache population, and trace replay.

Serving path: embed the query, try the QA bank at tau_query, otherwise
retrieve top-k chunks, reuse the longest cached QKV prefix, prefill the
remainder, decode, and populate both cache layers. An exact repeat of a
held query is not embedded: its entry's row is its embedding, bit for bit.
Nor is it scanned: the scan's winner is the oldest servable entry of the
row's direction (a positive multiple), at exactly 1.0, which no row of
another direction reaches while the rows are int8 (QaBank.match_repeat).
Background work (prediction, deferred answering, conversions) runs only on
idle ticks via the scheduler. The QA->QKV conversion admits evicted tree
nodes one by one, each charged as if restored alone, and prefills their
kept token ids chain by chain down root paths. It runs no retrieval or
match, so idle work never counts as a user retrieval in the LFU counts. A
tree is kept only under the stamp of the slice format, model and system
prompt its rows were computed for.

Everything is deterministic: one engine instance processes events
strictly sequentially, and identical traces, configs, and seeds yield
byte-identical metrics streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import takewhile
from pathlib import Path

from .backend import (
    CostModel,
    CostReport,
    QkvPrefix,
    QkvTensors,
    ScriptedBackend,
    ToyModel,
    ToyModelConfig,
)
from .config import EngineConfig
from .knowledge import (SLICE_VERSION, BankError, CacheTreeNode, KnowledgeBank, Segment,
                        StorageError, encodes_utf8, is_number, jsonl_bytes, read_utf8, slice_bytes)
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


# keys a config_change may not set. Engine builds the model, vocabulary, text
# backend, chunker and retriever from theirs once; Predictor reads the
# prediction keys as it goes, but they too stay as the trace began
FIXED_CONFIG_KEYS = frozenset({
    "model_layers", "model_heads", "model_head_dim", "seed", "vocab_file", "script_file",
    "chunk_words", "prediction_stride", "t_batch", "t_quiet",
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


def _root_path(node: CacheTreeNode) -> list[CacheTreeNode]:
    path = [node]
    while path[0].parent is not None:
        path.insert(0, path[0].parent)
    return path


def open_bank(config: EngineConfig, bank_dir) -> KnowledgeBank:
    """Open the bank in bank_dir, or start an empty one there. The
    vocabulary is config.vocab_file if set, else the bank's own vocab.txt,
    else the default; a vocabulary file that is not UTF-8 raises BankError
    naming file:line."""
    own = Path(bank_dir) / "vocab.txt"
    if config.vocab_file or own.exists():
        vocab = TokenizerVocab.from_text(read_utf8(config.vocab_file or own))
    else:
        vocab = TokenizerVocab(DEFAULT_VOCAB_TOKENS)
    return KnowledgeBank.load(bank_dir, vocab, config.qkv_limit_bytes, config.chunk_words)


@dataclass(frozen=True)
class QueryOutcome:
    """A served query; its fields, the cost's in place of cost, are its metrics record."""

    answer: str | None  # None when answer was asked not to decode
    path: str  # QA_HIT | QKV_PARTIAL | COLD_MISS
    matched_count: int
    best_similarity: float  # of the QA match; -1.0 when none ran
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
        self.retriever.rows.reserve(len(self.bank.chunks))
        self.retriever.add_chunks(self.bank.chunks.items())
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
        self.cost_model = CostModel(model_cfg, config)
        self.qa = QaBank.load(self.bank.directory / "qa.jsonl", config.qa_limit_bytes, self.embedder)
        self.text_backend = (load_script(config.script_file)
                             if config.script_file else ScriptedBackend())
        self.predictor = Predictor(self.text_backend, config)
        self.scheduler = Scheduler(self)
        # QA hits to answer at the next idle tick: text -> its embedding, in
        # arrival order
        self.deferred_queries: dict[str, Embedding] = {}
        self.metrics: list[dict] = []
        # the system prompt's text up to its last newline and that text's
        # ids, which begin every prompt (see _tokenize): one entry, for the
        # system prompt of the last prompt
        self._head: tuple[str, tuple[int, ...]] = ("", ())
        # sequence numbers continue from the largest one the bank persisted
        self._op = max([n.last_used for n in self.bank.nodes.values()]
                       + [e.last_used for e in self.qa.entries])
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
                + [Segment(self.bank.chunks[cid] + " ", cid) for cid in chunk_ids]
                + [Segment(query)])

    def _tokenize(self, prompt: str) -> tuple[int, ...]:
        """tokenize(prompt) for a prompt that begins with the system prompt.
        No token holds a newline (TokenizerVocab), so the ids of the text up
        to the system prompt's last newline are the same in every prompt:
        they are tokenized once per system prompt, and the rest once per
        prompt."""
        system = self.config.system_prompt
        head = system[: system.rfind("\n") + 1]
        if head != self._head[0]:
            self._head = (head, tokenize(head, self.vocab))
        return self._head[1] + tokenize(prompt[len(head):], self.vocab)

    def answer(self, text: str, decode: bool = True, embedding: Embedding | None = None,
               best_similarity: float | None = None) -> QueryOutcome:
        """Serve text past the QA bank: retrieve (embedding is text's, or
        text is embedded), prefill the prompt reusing the longest cached
        prefix of its token ids, and decode if decode. Then store its slices
        in the QKV tree (when reuse is enabled) and its answer in the QA
        bank (when QA is enabled). An existing entry for text takes a
        decoded answer in place and is no longer stale; an answer-less
        result never replaces a decoded answer. The match updates the
        reused nodes' LFU counts. best_similarity is that of the QA match
        text missed, None when none ran (idle work, or QA off): the one
        cost estimate charges that match, and the outcome reports it, or
        -1.0."""
        if embedding is None:
            embedding = self.embedder.embed(text)
        ranked = self.retriever.retrieve_top_k(text, self.config.retrieval_k, embedding=embedding)
        chunk_ids = [r.chunk_id for r in ranked]
        segments = self._assemble(text, chunk_ids)
        tokens = self._tokenize("".join(s.text for s in segments))
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
            qa_match=best_similarity is not None, qkv_match=self.config.reuse_enabled,
            embeds=1, decode_passes=passes,
        )
        if self.config.reuse_enabled:
            try:
                self.bank.slice_and_insert(segments, tokens, state.tensors, self._seq())
            except StorageError:
                pass  # the prompt's slices exceed the whole budget
        if self.config.qa_enabled:
            # the bar from the cosine row that retrieval just computed: no second scan
            bar = self.retriever.bar(embedding, self.config.k_refresh) if answer is not None else None
            self.qa.insert(text, embedding, answer, self._seq(), bar)
        return QueryOutcome(answer, QKV_PARTIAL if l_pre > 0 else COLD_MISS, matched,
                            -1.0 if best_similarity is None else best_similarity,
                            cost, len(tokens), l_pre, discarded)

    # -- serving path ---------------------------------------------------------

    def handle_query(self, text: str, now: float) -> QueryOutcome:
        self.predictor.phase = "serve"
        try:
            # an exact repeat of a held query: its entry's row is its
            # embedding, and match_repeat finds the winner without a scan
            held = self.qa.get(text)
            embedding = self.embedder.embed(text) if held is None else None
            entry, best_sim = (None, None)
            if self.config.qa_enabled:
                seq, tau = self._seq(), self.config.tau_query
                entry, best_sim = (self.qa.match(embedding, tau, seq) if held is None
                                   else self.qa.match_repeat(held, tau, seq))
            if entry is not None:
                if held is None:
                    self.deferred_queries.setdefault(text, embedding)
                self.predictor.note_user_query(text, now)
                cost = self.cost_model.estimate_cost(l_total=0, qa_match=True, embeds=1)
                return QueryOutcome(entry.answer, QA_HIT, 0, best_sim, cost)
            if held is not None:
                embedding = self.qa.embedding(held)
            outcome = self.answer(text, embedding=embedding, best_similarity=best_sim)
            self.predictor.note_user_query(text, now)
            return outcome
        finally:
            self.predictor.phase = "idle"

    # -- ingestion -------------------------------------------------------------

    def ingest_chunks(self, texts: list[str], now: float) -> tuple[list[str], list[str]]:
        """Chunk and store new knowledge; returns (all chunk ids touched,
        QA entries marked stale by refresh)."""
        all_ids = [chunk_id for text in texts for chunk_id in self.bank.ingest_text(text)]
        since = len(self.retriever)
        self.retriever.add_chunks((chunk_id, self.bank.chunks[chunk_id]) for chunk_id in all_ids)
        new_ids = self.retriever.rows_since(since)[0]  # the retriever skips known chunks
        stale = []
        if new_ids:
            stale = [e.query for e in self.qa.refresh(self.retriever, since, self.config.k_refresh)]
            self.predictor.note_chunks([self.bank.chunks[chunk_id] for chunk_id in new_ids], now)
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
        # an answer-less entry's row is its query's embedding
        return self.answer(query, decode,
                           None if existing is None else self.qa.embedding(existing)).cost

    def restore_evicted_slices(self, flops_left: float) -> tuple[list[int], float]:
        """QA->QKV conversion from each node's kept token ids, admitted node
        by node and run chain by chain. Absent nodes with kept ids go in LFU
        order, most retrieved first, which puts every ancestor before its
        descendants. A node is skipped while its parent is neither present
        nor admitted, the slice its kept ids make (not the manifest's
        byte_size) does not fit the space the admitted nodes leave free, or
        its root path kept no ids or no token at all; otherwise it is charged
        its root path's prefill behind the present or admitted ancestors, as
        if restored alone. Admission stops once the charges reach flops_left.
        A node joins its admitted parent's chain unless the parent already
        continued with another child. Each chain is one prefill of its
        deepest node's root path behind the present ancestors' slices, and
        each node holds its own rows, equal to the evicted ones bit for bit,
        as cached prefill equals recomputation. Moves no LFU count. Returns
        the restored ids, in admission order, and the FLOPs charged."""
        bank, cfg = self.bank, self.model.config
        admitted: dict[int, CacheTreeNode] = {}
        chains: list[list[CacheTreeNode]] = []  # admitted nodes, each below the one before
        tails: dict[int, list[CacheTreeNode]] = {}  # chains by their last node's id
        held, flops = 0, 0.0

        def ready(node: CacheTreeNode) -> bool:
            return node.present or node.node_id in admitted

        absent = sorted((n for n in bank.nodes.values()
                         if not n.present and n.token_ids is not None),
                        key=lambda n: (-n.retrieval_count, n.node_id))
        for node in absent:
            if flops >= flops_left:
                break
            path = _root_path(node)
            kept = [n.token_ids for n in path]
            size = slice_bytes(cfg.layers, len(node.token_ids), cfg.heads, cfg.head_dim)
            if (None in kept or (node.parent is not None and not ready(node.parent))
                    or not bank.fits(held + size) or not any(kept)):
                continue
            l_pre = sum(len(n.token_ids) for n in takewhile(ready, path))
            flops += self.cost_model.estimate_cost(l_total=sum(map(len, kept)),
                                                   l_pre=l_pre).total_flops
            held += size
            admitted[node.node_id] = node
            chain = tails.pop(node.parent.node_id, None) if node.parent is not None else None
            if chain is None:
                chains.append(chain := [])
            chain.append(node)
            tails[node.node_id] = chain
        for chain in chains:
            path = _root_path(chain[-1])
            ids = sum((n.token_ids for n in path), ())
            cached = list(takewhile(lambda n: n.present, path))
            l_pre = sum(len(n.token_ids) for n in cached)
            state = self.model.prefill(ids, QkvPrefix(
                QkvTensors.concat([n.tensors for n in cached]), l_pre) if cached else None)
            end = len(ids)
            for node in reversed(chain):
                start = end - len(node.token_ids)
                bank.hold(node, state.tensors.slice_tokens(start, end))
                end = start
        return list(admitted), flops

    # -- trace replay ---------------------------------------------------------

    def apply_event(self, event: dict) -> dict:
        at = event.get("at")
        kind = event.get("kind")
        if not is_number(at) or kind is None:
            raise TraceError("event needs numeric 'at' and 'kind'")
        if kind not in ("query_arrival", "chunk_arrival", "config_change", "idle_tick"):
            raise TraceError(f"unknown event kind: {kind}")
        if self._last_at is not None and at < self._last_at:
            raise TraceError(f"out-of-order event at {at} after {self._last_at}")
        if kind in ("query_arrival", "chunk_arrival") and not isinstance(event.get("text"), str):
            raise TraceError(f"{kind} needs a string 'text'")
        if kind == "query_arrival" and not event["text"]:
            raise TraceError("query_arrival needs a non-empty 'text'")
        if kind in ("query_arrival", "chunk_arrival") and not encodes_utf8(event["text"]):
            raise TraceError(f"{kind} 'text' holds a lone surrogate, which UTF-8 cannot encode")
        if kind == "config_change" and (
            not isinstance(event.get("field"), str) or event["field"] in FIXED_CONFIG_KEYS
        ):
            raise TraceError(f"config key {event.get('field')!r} cannot change mid-trace")
        if kind == "config_change" and type(event.get("value")) not in (str, int, float, bool):
            raise TraceError("config_change needs a string, number or boolean 'value'")
        budget = event.get("budget", 0.0)
        if kind == "idle_tick" and not is_number(budget):
            raise TraceError(f"idle_tick budget must be a number: {budget!r}")
        record: dict = {"at": at, "kind": kind}
        if kind == "query_arrival":
            record.update(vars(self.handle_query(event["text"], at)), text=event["text"])
            record.update(vars(record.pop("cost")))
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
            record.update(field=field, value=value)
        else:
            record.update(vars(self.scheduler.idle_tick(budget, at)))
        record.update(
            qa_entries=len(self.qa.entries),
            qa_used_bytes=self.qa.used_bytes,
            qkv_used_bytes=self.bank.used_bytes,
        )
        self._last_at = at  # a refused event leaves the clock where it was
        self.metrics.append(record)
        return record

    def persist(self) -> None:
        self.bank.persist()
        self.qa.persist(self.bank.directory / "qa.jsonl")

    def write_metrics(self, path) -> None:
        Path(path).write_bytes(jsonl_bytes(self.metrics))
