"""Semantic question-answer bank.

Entries map a past or predicted query to its decoded answer. Lookup is
cosine similarity against the query embedding with a strict threshold. Answer-less entries (query
predicted but not yet decoded) and stale entries (grounding chunks
superseded by new knowledge) are never served; they are completed or
re-decoded at idle ticks.

Accounting is flat: every entry charges DEFAULT_ENTRY_BYTES, and eviction
is LFU over per-entry use counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .knowledge import jsonl_bytes, read_jsonl, write_atomic
from .textcore import Embedding, HashEmbedder, cosine_similarities

DEFAULT_ENTRY_BYTES = 4096


class QaCapacityError(RuntimeError):
    """The QA byte budget cannot hold even a single entry."""


@dataclass
class QaEntry:
    query: str
    embedding: Embedding
    answer: str | None
    created_at: int
    last_used: int
    use_count: int = 0
    stale: bool = False

    @property
    def servable(self) -> bool:
        return self.answer is not None and not self.stale


class QaBank:
    def __init__(self, limit_bytes: int):
        self.limit_bytes = limit_bytes
        self.entries: list[QaEntry] = []
        self._by_query: dict[str, QaEntry] = {}

    @property
    def used_bytes(self) -> int:
        return len(self.entries) * DEFAULT_ENTRY_BYTES

    def get(self, query: str) -> QaEntry | None:
        return self._by_query.get(query)

    def match(self, embedding: Embedding, tau: float, now: int) -> tuple[QaEntry | None, float]:
        """Best servable entry strictly above tau.

        Returns (entry or None, best similarity over servable entries);
        the similarity is -1.0 when no entry is servable. A hit bumps
        use_count and last_used.
        """
        servable = [e for e in self.entries if e.servable]
        if not servable:
            return None, -1.0
        sims = cosine_similarities(np.array([e.embedding.values for e in servable]), embedding)
        # ties: the oldest entry, then the first in list order
        i = min(np.flatnonzero(sims == sims.max()).tolist(), key=lambda i: servable[i].created_at)
        best, best_sim = servable[i], float(sims[i])
        if best_sim > tau and best_sim > -1.0:  # the -1.0 floor picks no entry, whatever tau is
            best.use_count += 1
            best.last_used = now
            return best, best_sim
        return None, best_sim

    def insert(
        self,
        query: str,
        embedding: Embedding,
        answer: str | None,
        now: int,
    ) -> list[QaEntry]:
        """Insert or update; returns evicted entries.

        Exact-text duplicates replace in place keeping the larger
        use_count; a decoded answer is never replaced by an answer-less
        insert for the same text.
        """
        existing = self._by_query.get(query)
        if existing is not None:
            if answer is None and existing.answer is not None:
                return []
            existing.answer = answer
            existing.last_used = now
            if answer is not None:
                existing.stale = False
            return []
        if DEFAULT_ENTRY_BYTES > self.limit_bytes:
            raise QaCapacityError("qa_limit_bytes smaller than one entry")
        evicted = self._evict_lfu(self.limit_bytes // DEFAULT_ENTRY_BYTES - 1)
        entry = QaEntry(query, embedding, answer, now, now)
        self.entries.append(entry)
        self._by_query[query] = entry
        return evicted

    def _remove(self, entry: QaEntry) -> None:
        self.entries.remove(entry)
        del self._by_query[entry.query]

    def _evict_lfu(self, keep: int) -> list[QaEntry]:
        """Evict until at most keep entries remain; victims have the fewest
        uses (ties: least-recent last_used, then oldest, then query)."""
        evicted: list[QaEntry] = []
        while len(self.entries) > max(keep, 0):
            victim = min(self.entries, key=lambda e: (e.use_count, e.last_used, e.created_at, e.query))
            self._remove(victim)
            evicted.append(victim)
        return evicted

    def set_limit(self, limit_bytes: int) -> list[QaEntry]:
        """Change the byte budget; shrinking evicts LFU immediately."""
        self.limit_bytes = limit_bytes
        evicted = self._evict_lfu(limit_bytes // DEFAULT_ENTRY_BYTES)
        if self.used_bytes > self.limit_bytes:
            raise QaCapacityError("qa_limit_bytes smaller than one entry")
        return evicted

    def refresh(self, new_chunk_ids: set[str], rank: "callable", k_refresh: int) -> list[QaEntry]:
        """Mark entries stale when newly ingested chunks displace their grounding.

        rank(embedding, k) must return the ids of the top k chunks of the
        full corpus for an entry's embedding, in ranked order; an entry goes
        stale if any new chunk lands in its top k_refresh. Returns the
        entries marked stale.
        """
        marked = []
        for entry in self.entries:
            if entry.answer is None or entry.stale:
                continue
            if any(cid in new_chunk_ids for cid in rank(entry.embedding, k_refresh)):
                entry.stale = True
                marked.append(entry)
        return marked

    def pending(self) -> list[QaEntry]:
        """Entries needing decode work (answer-less or stale), oldest first."""
        todo = [e for e in self.entries if e.answer is None or e.stale]
        todo.sort(key=lambda e: (e.created_at, e.query))
        return todo

    # -- persistence --------------------------------------------------------

    def persist(self, path) -> None:
        write_atomic(Path(path), jsonl_bytes(
            {
                "query": e.query,
                "answer": e.answer,
                "created_at": e.created_at,
                "last_used": e.last_used,
                "use_count": e.use_count,
                "stale": e.stale,
            }
            for e in self.entries
        ))

    @classmethod
    def load(
        cls,
        path,
        limit_bytes: int,
        embedder: HashEmbedder | None = None,
    ) -> "QaBank":
        embedder = embedder or HashEmbedder()
        bank = cls(limit_bytes)
        fields = ("query", "answer", "created_at", "last_used", "use_count", "stale")
        for _, rec in read_jsonl(Path(path), fields):
            entry = QaEntry(
                rec["query"],
                embedder.embed(rec["query"]),
                rec["answer"],
                rec["created_at"],
                rec["last_used"],
                rec["use_count"],
                rec["stale"],
            )
            bank.entries.append(entry)
            bank._by_query[entry.query] = entry
        if bank.used_bytes > limit_bytes:
            bank.set_limit(limit_bytes)
        return bank
