"""Seeded synthetic workloads for the percache benchmark.

Each builder turns a seed and a block count into a corpus, a word-level
tokenizer vocabulary, a scripted history-prediction queue, an engine config
and an event trace. The program under test only ever sees these generated
files. Like ``scripts/make_traces.py``, the builders measure the properties
the workload relies on with the engine's own embedder and retriever and fail
loudly when one does not hold:

* fresh queries stay below ``tau_query`` against every text asked or
  predicted before them, so they miss the QA bank;
* paraphrases sit above ``tau_query`` against the query they rephrase, so
  they hit it;
* anchored topic queries retrieve exactly their topic's chunk path, so misses
  reuse deep prefixes of the QKV tree.

* arriving chunks stay out of every QA text's top ``k_refresh`` cosine
  ranking, so a chunk arrival re-ranks every QA entry without marking one
  stale. Their words come from a pool no query uses, so few draws fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from percache.config import EngineConfig
from percache.knowledge import content_hash
from percache.qa import DEFAULT_ENTRY_BYTES
from percache.retrieval import Retriever
from percache.textcore import HashEmbedder, cosine_similarity

CHUNK_WORDS = 12
QUERY_WORDS = 10
# fresh texts keep this far below tau_query, paraphrases this far above it
SIM_MARGIN = 0.05
# arriving chunks keep this far below each text's k_refresh-th best chunk
RANK_MARGIN = 1e-6
K_REFRESH = EngineConfig().k_refresh
T_QUIET = 5
SYLLABLES = ("ba", "de", "fi", "go", "ku", "la", "me", "ni", "po", "ru", "sa", "te", "vi", "wo", "za", "xe")
MAX_TRIES = 500

# Blocks per trace, and the wall time of one replay of it, set-up and probes
# included, on a 2-CPU x86 container. A run spends its seconds on as many
# identical replays as fit, at least MIN_REPEATS; the trace itself depends on
# the seed alone.
BLOCKS = {"qa_repeat": 12, "prefix_reuse": 8, "corpus_scale": 2}
SECONDS_PER_REPLAY = {"qa_repeat": 6.0, "prefix_reuse": 5.0, "corpus_scale": 7.5}
MIN_REPEATS = 3


@dataclass
class Workload:
    name: str
    config: dict
    corpus: list[str]
    vocab: list[str]
    predictions: list[list[str]]  # one history_prediction response per idle tick
    events: list[dict]
    designed_hit_share: float

    def config_text(self) -> str:
        return "".join(f"{key}={value}\n" for key, value in self.config.items())

    def script(self) -> dict:
        entries = [
            {
                "template": "history_prediction",
                "slots_digest": "*",
                "response": "; ".join(f"{i}. {q}" for i, q in enumerate(batch, 1)),
            }
            for batch in self.predictions
        ]
        return {"fallback": "", "entries": entries}


class _Builder:
    """Trace under construction plus the similarity guard over every text
    the QA bank may hold by the time the next query arrives."""

    def __init__(self, seed: int, tau: float):
        self.rng = random.Random(seed)
        self.embedder = HashEmbedder()
        self.tau = tau
        self._known = np.zeros((64, self.embedder.dim))
        self._count = 0
        self.events: list[dict] = []
        self.predictions: list[list[str]] = []
        self.at = 0
        self._taken: set[str] = set()

    # -- vocabulary ----------------------------------------------------------

    def words(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            word = "".join(self.rng.choice(SYLLABLES) for _ in range(self.rng.randint(2, 4)))
            if word not in self._taken:
                self._taken.add(word)
                out.append(word)
        return out

    def chunk(self, pool: list[str], head: tuple = ()) -> str:
        return " ".join(list(head) + self.rng.sample(pool, CHUNK_WORDS - len(head)))

    # -- similarity guard ----------------------------------------------------

    def remember(self, text: str) -> None:
        if self._count == len(self._known):
            self._known = np.concatenate([self._known, np.zeros_like(self._known)])
        self._known[self._count] = self.embedder.embed(text).values
        self._count += 1

    def _novel(self, text: str) -> bool:
        if self._count == 0:
            return True
        sims = self._known[: self._count] @ self.embedder.embed(text).values
        return float(sims.max()) < self.tau - SIM_MARGIN

    def fresh(self, pool: list[str], head: tuple = (), accept=None) -> str:
        """A query below tau_query against every remembered text."""
        for _ in range(MAX_TRIES):
            words = list(head) + self.rng.sample(pool, QUERY_WORDS - len(head))
            text = " ".join(words) + "?"
            if self._novel(text) and (accept is None or accept(text)):
                self.remember(text)
                return text
        raise AssertionError(f"no novel query found after {MAX_TRIES} tries")

    def paraphrase(self, original: str, pool: list[str]) -> str:
        """The query with one word appended, measured above tau_query."""
        base = self.embedder.embed(original)
        for _ in range(MAX_TRIES):
            text = original[:-1] + " " + self.rng.choice(pool) + "?"
            sim = cosine_similarity(base, self.embedder.embed(text))
            if self.tau + SIM_MARGIN < sim < 1.0:
                self.remember(text)
                return text
        raise AssertionError(f"no paraphrase above tau_query for {original!r}")

    # -- events --------------------------------------------------------------

    def query(self, text: str) -> None:
        self.at += 1
        self.events.append({"at": self.at, "kind": "query_arrival", "text": text})

    def tick(self, budget: float, predicted: list[str] | None = None) -> None:
        self.at += T_QUIET
        self.events.append({"at": self.at, "kind": "idle_tick", "budget": budget})
        if predicted is not None:
            self.predictions.append(predicted)
            for text in predicted:
                self.remember(text)

    def corpus(self, chunks: list[str]) -> list[str]:
        if len(set(chunks)) != len(chunks):
            raise AssertionError("duplicate corpus chunk")
        self._chunks = np.array([self.embedder.embed(c).values for c in chunks])
        return chunks

    def arrival(self, pool: list[str]) -> str:
        """A chunk arrives that stays out of the top k_refresh cosine ranking
        of every remembered text, so refresh marks no QA entry stale."""
        known = self._known[: self._count]
        floor = np.sort(known @ self._chunks.T, axis=1)[:, -K_REFRESH]
        for _ in range(MAX_TRIES):
            text = self.chunk(pool)
            emb = self.embedder.embed(text).values
            if np.all(known @ emb < floor - RANK_MARGIN):
                self._chunks = np.vstack([self._chunks, emb])
                self.at += 1
                self.events.append({"at": self.at, "kind": "chunk_arrival", "text": text})
                return text
        raise AssertionError(f"no arriving chunk outside the refresh ranking after {MAX_TRIES} tries")

    def config_change(self, field: str, value) -> None:
        self.at += 1
        self.events.append({"at": self.at, "kind": "config_change", "field": field, "value": value})


def qa_repeat(seed: int, blocks: int) -> Workload:
    """2,000 chunks, model 2x2x8. Each block after the first asks 5 fresh
    queries and 5 that the QA bank serves: 2 exact repeats and 1 paraphrase
    of the previous block's fresh queries, and the 2 queries the history
    view predicted at the previous idle tick. A chunk arrives before each of
    blocks 1-5; it re-ranks every QA entry, so an arrival costs more the
    fuller the bank is. Five arrivals rather than one or two keep their mean
    from resting on a single event of half a second."""
    b = _Builder(seed, EngineConfig().tau_query)
    pool = b.words(1500)
    arrival_pool = b.words(200)
    corpus = b.corpus([b.chunk(pool) for _ in range(2000)])
    arrivals_at = {1, 2, 3, 4, 5}
    previous: list[str] = []
    predicted: list[str] = []
    for block in range(blocks):
        if block in arrivals_at:
            b.arrival(arrival_pool)
        asked = previous[:2] + [b.paraphrase(previous[2], pool)] + predicted if previous else []
        fresh = [b.fresh(pool) for _ in range(5)]
        asked += fresh
        b.rng.shuffle(asked)
        for text in asked:
            b.query(text)
        previous = fresh
        predicted = [b.fresh(pool) for _ in range(2)]
        b.tick(1e15, predicted)
    config = {
        "vocab_file": "vocab.txt",
        "script_file": "script.json",
        "chunk_words": CHUNK_WORDS,
        "t_batch": 1e9,
        "t_quiet": T_QUIET,
        "prediction_stride": 2,
    }
    return Workload("qa_repeat", config, corpus, pool + arrival_pool, b.predictions,
                    b.events, 5 * (blocks - 1) / (10 * blocks - 5))


REPEATS = 4  # exact repeats per prefix_reuse block
TIGHT_BLOCKS = 2  # prefix_reuse blocks under the tight QKV budget


def prefix_reuse(seed: int, blocks: int) -> Workload:
    """200 chunks, model 4x4x16. Ten topics own three anchor chunks each; every
    block asks one new query per topic, anchored on the topic's key words so it
    retrieves the topic's path, plus 4 exact repeats of the previous block's
    queries. The QKV byte budget starts below the working set, so inserts
    evict; after TIGHT_BLOCKS blocks a config_change relaxes it just before an
    idle tick, which restores evicted slices under its FLOPs budget. Misses
    under the tight budget are slower than the rest; a quarter of them keeps
    the median miss inside the relaxed mode and p90 inside the tight one, away
    from the gap between them."""
    b = _Builder(seed, EngineConfig().tau_query)
    pool = b.words(1500)
    query_pool = b.words(300)  # query filler: in no chunk, so it never steers retrieval
    arrival_pool = b.words(200)
    topics = [b.words(3) for _ in range(10)]
    # key word sets (k1 k2 k3), (k1 k2), (k1 k3): the adjacent pair gives the
    # second chunk a bigram the third lacks, so the order is stable
    anchors = [[b.chunk(pool, tuple(kw)), b.chunk(pool, (kw[0], kw[1])), b.chunk(pool, (kw[0], kw[2]))]
               for kw in topics]
    corpus = b.corpus([c for group in anchors for c in group] + [b.chunk(pool) for _ in range(170)])
    retriever = Retriever(b.embedder, alpha=EngineConfig().alpha_fusion)

    def add(text: str) -> None:
        retriever.add_chunk(content_hash(text).hex()[:16], text, b.embedder.embed(text))

    for text in corpus:
        add(text)
    anchor_ids = [{content_hash(c).hex()[:16] for c in group} for group in anchors]
    paths: dict[int, tuple] = {}

    def anchored(topic: int):
        def accept(text: str) -> bool:
            path = tuple(r.chunk_id for r in retriever.retrieve_top_k(text, 3))
            if topic not in paths and set(path) == anchor_ids[topic]:
                paths[topic] = path
            return paths.get(topic) == path
        return accept

    previous: list[str] = []
    for block in range(blocks):
        if block:
            add(b.arrival(arrival_pool))
        order = list(range(len(topics)))
        b.rng.shuffle(order)
        asked = [b.fresh(query_pool, tuple(topics[t]), anchored(t)) for t in order]
        fresh = list(asked)
        for slot, text in zip((2, 5, 8, 11), previous[:REPEATS]):
            asked.insert(slot, text)
        for text in asked:
            b.query(text)
        previous = fresh
        if block == TIGHT_BLOCKS - 1:
            # relax before the tick, so restoration runs before the topics recur
            b.config_change("qkv_limit_bytes", 4_000_000)
        b.tick(1.2e8)
    config = {
        "vocab_file": "vocab.txt",
        "script_file": "script.json",
        "chunk_words": CHUNK_WORDS,
        "t_batch": 1e9,
        "t_quiet": 1e9,
        "model_layers": 4,
        "model_heads": 4,
        "model_head_dim": 16,
        "max_decode_tokens": 4,
        # root plus about 12 of the 30 topic slices
        "qkv_limit_bytes": 1_000_000,
    }
    vocab = pool + query_pool + arrival_pool + [w for kw in topics for w in kw]
    return Workload("prefix_reuse", config, corpus, vocab, b.predictions, b.events,
                    REPEATS * (blocks - 1) / ((10 + REPEATS) * blocks - REPEATS))


def corpus_scale(seed: int, blocks: int) -> Workload:
    """20,000 chunks, model 2x2x8. Every block starts with a chunk arrival that
    refreshes the QA bank, capped at 8 entries, against the whole corpus, then
    asks 4 unique, unanchored queries plus 2 repeats each of 2 recurring
    queries; each idle tick populates one predicted query that is never
    asked."""
    b = _Builder(seed, EngineConfig().tau_query)
    pool = b.words(1500)
    arrival_pool = b.words(200)
    corpus = b.corpus([b.chunk(pool) for _ in range(20000)])
    hot = [b.fresh(pool), b.fresh(pool)]
    for text in hot:
        b.query(text)
    for _ in range(blocks):
        b.arrival(arrival_pool)
        asked = [b.fresh(pool) for _ in range(4)] + hot + hot
        b.rng.shuffle(asked)
        for text in asked:
            b.query(text)
        b.tick(1e15, [b.fresh(pool)])
    config = {
        "vocab_file": "vocab.txt",
        "script_file": "script.json",
        "chunk_words": CHUNK_WORDS,
        "t_batch": 1e9,
        "t_quiet": T_QUIET,
        "prediction_stride": 1,
        "qa_limit_bytes": 8 * DEFAULT_ENTRY_BYTES,
    }
    return Workload("corpus_scale", config, corpus, pool + arrival_pool, b.predictions,
                    b.events, 4 * blocks / (8 * blocks + 2))


BUILDERS = {"qa_repeat": qa_repeat, "prefix_reuse": prefix_reuse, "corpus_scale": corpus_scale}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed, BLOCKS[name])


def repeats(name: str, seconds: int) -> int:
    return max(MIN_REPEATS, round(seconds / SECONDS_PER_REPLAY[name]))
