"""Semantic question-answer bank.

Entries map a past or predicted query to its decoded answer. Lookup is
cosine similarity against the query embedding with a strict threshold. Answer-less entries (query
predicted but not yet decoded) and stale entries (grounding chunks
superseded by new knowledge) are never served; they are completed or
re-decoded at idle ticks.

Accounting is flat: every entry charges DEFAULT_ENTRY_BYTES, and eviction
is LFU over per-entry use counts.

An answered entry keeps its top k_refresh chunks as (cosine, chunk_id) keys,
so a chunk arrival scores only the new chunks (QaBank.refresh). Keys are not
persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import NoneType
from typing import Callable

import numpy as np

from .knowledge import BankError, jsonl_bytes, read_jsonl, write_atomic
from .textcore import Embedding, HashEmbedder, cosine_similarities

DEFAULT_ENTRY_BYTES = 4096

Key = tuple[float, str]  # (cosine, chunk_id)


def _rank(key: Key) -> tuple[float, str]:
    return -key[0], key[1]


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
    # the best keys of the corpus for embedding, best first, or None if unknown
    keys: list[Key] | None = None

    @property
    def servable(self) -> bool:
        return self.answer is not None and not self.stale


class QaBank:
    def __init__(self, limit_bytes: int):
        self.limit_bytes = limit_bytes
        self._by_query: dict[str, QaEntry] = {}
        self.entries = self._by_query.values()  # in insertion order

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
        # ties: the oldest entry, then the first inserted
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
        keys: list[Key] | None = None,
    ) -> list[QaEntry]:
        """Insert or update; returns evicted entries.

        Exact-text duplicates replace in place keeping the larger
        use_count; a decoded answer is never replaced by an answer-less
        insert for the same text. An answered insert takes keys, the
        corpus's current best keys for embedding; None leaves the entry to
        be ranked at the next refresh.
        """
        existing = self._by_query.get(query)
        if existing is not None:
            if answer is None and existing.answer is not None:
                return []
            existing.answer = answer
            existing.last_used = now
            if answer is not None:
                existing.stale = False
                existing.keys = keys
            return []
        if DEFAULT_ENTRY_BYTES > self.limit_bytes:
            raise QaCapacityError("qa_limit_bytes smaller than one entry")
        evicted = self._evict_lfu(self.limit_bytes // DEFAULT_ENTRY_BYTES - 1)
        entry = QaEntry(query, embedding, answer, now, now,
                        keys=keys if answer is not None else None)
        self._by_query[query] = entry
        return evicted

    def _remove(self, entry: QaEntry) -> None:
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
        return self._evict_lfu(limit_bytes // DEFAULT_ENTRY_BYTES)

    def refresh(self, cosine_keys: Callable[..., list[Key]], since: int,
                k_refresh: int) -> list[QaEntry]:
        """Mark entries stale when newly ingested chunks displace their grounding.

        The chunks from row since on are new. cosine_keys(embedding, k,
        since=0) returns the k best keys for embedding among the rows from
        since on, ordered by (-cosine, chunk_id). An answered, fresh entry
        goes stale iff a new key ranks within the top k_refresh of its kept
        keys and the new keys, and that top k_refresh becomes its keys. This
        equals ranking the whole corpus, because chunks are never removed
        and a chunk's key does not depend on which chunks are scored with
        it. An entry whose keys are unknown, or fewer than
        min(k_refresh, since) after k_refresh grew, is ranked against the
        whole corpus. Answer-less and stale entries are skipped and forget
        their keys, which would miss these chunks. Returns the entries
        marked stale.
        """
        marked = []
        for entry in self.entries:
            if entry.answer is None or entry.stale:
                entry.keys = None
                continue
            new = cosine_keys(entry.embedding, k_refresh, since)
            if entry.keys is None or len(entry.keys) < min(k_refresh, since):
                entry.keys = cosine_keys(entry.embedding, k_refresh)
            else:
                entry.keys = sorted(entry.keys + new, key=_rank)[:k_refresh]
            if any(key in new for key in entry.keys):
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
        """The bank persisted at path, or an empty one if there is none. A
        query on two lines raises BankError naming the second."""
        embedder = embedder or HashEmbedder()
        bank = cls(limit_bytes)
        path = Path(path)
        if not path.exists():
            return bank
        fields = {"query": (str,), "answer": (str, NoneType), "created_at": (int,),
                  "last_used": (int,), "use_count": (int,), "stale": (bool,)}
        for lineno, rec in read_jsonl(path, fields):
            if rec["query"] in bank._by_query:
                raise BankError(f"{path}:{lineno}: duplicate query {rec['query']!r}")
            entry = QaEntry(
                rec["query"],
                embedder.embed(rec["query"]),
                rec["answer"],
                rec["created_at"],
                rec["last_used"],
                rec["use_count"],
                rec["stale"],
            )
            bank._by_query[entry.query] = entry
        if bank.used_bytes > limit_bytes:
            bank.set_limit(limit_bytes)
        return bank
