"""Semantic question-answer bank.

Entries map a past or predicted query to its decoded answer. Lookup is
cosine similarity against the query embedding with a strict threshold. Answer-less entries (query
predicted but not yet decoded) and stale entries (grounding chunks
superseded by new knowledge) are never served; they are completed or
re-decoded at idle ticks.

Accounting is flat: every entry charges DEFAULT_ENTRY_BYTES, and eviction
is LFU over per-entry use counts.

The entries' embeddings are the rows of one float64 matrix, in insertion
order. An evicted entry leaves a hole; when the matrix is full, the holes
are dropped and the capacity doubles if more than half of it is in use.
Beside the matrix a mask marks the servable rows. Only QaBank's methods
change an entry's answer or stale flag, and they keep the mask in step, so
match scores the masked rows with one cosine_similarities call.

An answered entry keeps its top k_refresh chunks as (cosine, chunk_id) keys,
so a chunk arrival scores only the new chunks (QaBank.refresh), each against
every servable row in one call. Keys are not persisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import NoneType

import numpy as np

from .knowledge import BankError, jsonl_bytes, read_jsonl, write_atomic
from .retrieval import Retriever, top_k_order
from .textcore import Embedding, HashEmbedder, cosine_similarities

DEFAULT_ENTRY_BYTES = 4096
INITIAL_ROWS = 16

Key = tuple[float, str]  # (cosine, chunk_id)


def _rank(key: Key) -> tuple[float, str]:
    return -key[0], key[1]


class QaCapacityError(RuntimeError):
    """The QA byte budget cannot hold even a single entry."""


@dataclass
class QaEntry:
    """One bank entry. answer and stale are changed through QaBank only."""

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
        self._row: dict[str, int] = {}  # query -> row
        self._held: list[QaEntry | None] = []  # row -> entry, None once evicted
        self._emb = np.empty((0, 0))  # rows sized at the first insert
        self._servable = np.zeros(0, dtype=bool)

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
        rows, emb = self._servable_rows()
        if not rows:
            return None, -1.0
        sims = cosine_similarities(emb, embedding)
        # ties: the oldest entry, then the first inserted
        i = min(np.flatnonzero(sims == sims.max()).tolist(),
                key=lambda i: self._held[rows[i]].created_at)
        best, best_sim = self._held[rows[i]], float(sims[i])
        if best_sim > tau and best_sim > -1.0:  # the -1.0 floor picks no entry, whatever tau is
            best.use_count += 1
            best.last_used = now
            return best, best_sim
        return None, best_sim

    def _servable_rows(self) -> tuple[list[int], np.ndarray]:
        """The servable rows and their embeddings, a view if every row is."""
        n = len(self._held)
        rows = np.flatnonzero(self._servable[:n])
        return rows.tolist(), self._emb[:n] if len(rows) == n else self._emb[rows]

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
            self._servable[self._row[query]] = existing.servable
            return []
        if DEFAULT_ENTRY_BYTES > self.limit_bytes:
            raise QaCapacityError("qa_limit_bytes smaller than one entry")
        evicted = self._evict_lfu(self.limit_bytes // DEFAULT_ENTRY_BYTES - 1)
        self._add(QaEntry(query, embedding, answer, now, now,
                          keys=keys if answer is not None else None))
        return evicted

    def mark_stale(self, query: str) -> None:
        """Stop serving query's entry until a new answer is inserted."""
        self._by_query[query].stale = True
        self._servable[self._row[query]] = False

    def _add(self, entry: QaEntry) -> None:
        if len(self._held) == len(self._emb):
            self._compact(entry.embedding.dim)
        row = len(self._held)
        self._emb[row] = entry.embedding.values
        self._servable[row] = entry.servable
        self._held.append(entry)
        self._row[entry.query] = row
        self._by_query[entry.query] = entry

    def _compact(self, dim: int) -> None:
        """Drop the holes of evicted rows, keeping insertion order; the
        capacity doubles if the entries fill more than half of it."""
        live = [row for row, held in enumerate(self._held) if held is not None]
        capacity = len(self._emb) * (2 if 2 * len(live) > len(self._emb) else 1)
        emb = np.empty((max(capacity, INITIAL_ROWS), dim))
        servable = np.zeros(len(emb), dtype=bool)
        if live:
            emb[: len(live)] = self._emb[live]
            servable[: len(live)] = self._servable[live]
        self._emb, self._servable = emb, servable
        self._held = [self._held[row] for row in live]
        self._row = {entry.query: row for row, entry in enumerate(self._held)}

    def _remove(self, entry: QaEntry) -> None:
        del self._by_query[entry.query]
        row = self._row.pop(entry.query)
        self._held[row] = None
        self._servable[row] = False

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

    def refresh(self, retriever: Retriever, since: int, k_refresh: int) -> list[QaEntry]:
        """Mark entries stale when newly ingested chunks displace their grounding.

        The retriever's chunks from row since on are new; rows_since
        gathers them once, and each is scored against every servable row
        in one cosine_similarities call. An answered, fresh entry goes
        stale iff a new key ranks within the top k_refresh of its kept keys
        and the new keys, and that top k_refresh becomes its keys. This
        equals ranking the whole corpus, because chunks are never removed
        and a dot has the same bits whichever rows are scored with it and
        whichever of its two vectors is the row. Only an entry whose best
        new cosine ties or beats its k_refresh-th kept key is merged; the
        others keep their keys. An entry whose keys are unknown, or fewer
        than min(k_refresh, since) after k_refresh grew, is ranked by
        retriever.cosine_keys against the whole corpus. Answer-less and
        stale entries are skipped and forget their keys, which would miss
        these chunks. Returns the entries marked stale.
        """
        held = self._held
        for row in np.flatnonzero(~self._servable[: len(held)]).tolist():
            if held[row] is not None:
                held[row].keys = None
        rows, emb = self._servable_rows()
        if not rows:
            return []
        ids, chunks = retriever.rows_since(since)
        new = set(ids)
        sims = np.empty((len(rows), len(ids)))
        for j, chunk in enumerate(chunks):
            sims[:, j] = cosine_similarities(emb, Embedding(chunk))
        best_new = sims.max(axis=1, initial=-np.inf).tolist()
        marked = []
        for i, row in enumerate(rows):
            entry = held[row]
            keys = entry.keys
            if keys is not None and len(keys) >= k_refresh and best_new[i] < keys[k_refresh - 1][0]:
                entry.keys = keys[:k_refresh]  # no new key enters them
                continue
            if keys is None or len(keys) < min(k_refresh, since):
                keys = retriever.cosine_keys(entry.embedding, k_refresh)
            else:
                top = top_k_order(sims[i], k_refresh)
                keys = sorted(keys + list(zip(sims[i, top].tolist(), [ids[j] for j in top.tolist()])),
                              key=_rank)[:k_refresh]
            entry.keys = keys
            if any(cid in new for _, cid in keys):
                self.mark_stale(entry.query)
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
            bank._add(QaEntry(
                rec["query"],
                embedder.embed(rec["query"]),
                rec["answer"],
                rec["created_at"],
                rec["last_used"],
                rec["use_count"],
                rec["stale"],
            ))
        if bank.used_bytes > limit_bytes:
            bank.set_limit(limit_bytes)
        return bank
