"""Semantic question-answer bank.

Entries map a past or predicted query to its decoded answer. Lookup is
cosine similarity against the query embedding with a strict threshold.
Answer-less entries (query predicted but not yet decoded) and stale
entries (grounding chunks superseded by new knowledge) are never served;
they are completed or re-decoded at idle ticks.

Accounting is flat: every entry charges DEFAULT_ENTRY_BYTES, and eviction
is LFU over per-entry use counts.

The entries' embeddings are a textcore.CountRows, in insertion order, and
are kept nowhere else: each entry holds its row, and QaBank.embedding
rebuilds the Embedding from it. An evicted entry leaves a hole; when the
rows are full, the holes are dropped before they grow and the rows
renumbered in the same order, so a row is its entry's age. Beside the
rows a mask marks the servable ones. Only
QaBank's methods change an entry's answer or stale flag, and they keep the
mask in step, so match scans every held row with one cosine_similarities
call, term at a time over the query's nonzero features, and keeps the
masked ones.

An exact repeat of a held query needs no scan (match_repeat). The entries
are indexed by their row's primitive direction, its counts over their gcd,
in row order. A row's cosine with itself or with a positive multiple of it
is exactly 1.0, and with any other row of int8 counts below 1.0, so the
first servable entry of the direction is the scan's winner. Rows widened
past int8 are scanned.

A servable entry keeps one bar, its k_refresh-th best (cosine, chunk_id)
key over the corpus, so a chunk arrival scores only the new chunks
(QaBank.refresh), all of them against every held row in one cosine_table
call, of which the masked rows count. An
entry holds a bar only while it is servable: mark_stale drops it, and only
an answered insert gives it. Bars are not persisted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from types import NoneType

import numpy as np

from .knowledge import BankError, jsonl_bytes, read_jsonl, write_atomic
from .retrieval import Retriever
from .textcore import CountRows, Embedding, HashEmbedder, cosine_similarities, cosine_table

DEFAULT_ENTRY_BYTES = 4096

Key = tuple[float, str]  # (cosine, chunk_id), ranked by (-cosine, chunk_id)


@dataclass
class QaEntry:
    """One bank entry. answer and stale are changed through QaBank only."""

    query: str
    answer: str | None
    last_used: int
    use_count: int = 0
    stale: bool = False
    # the corpus's k_refresh-th key for its embedding, (-inf, "") if it
    # held fewer chunks; None if unknown or not servable
    bar: Key | None = None
    row: int = -1  # its row in QaBank's rows, set by QaBank._add
    direction: bytes = b""  # its row's primitive direction (_direction), set by QaBank._add

    @property
    def servable(self) -> bool:
        return self.answer is not None and not self.stale


def _direction(e: Embedding) -> bytes:
    """The primitive direction of e's counts, the counts over their gcd, as
    a compact key: the ids of the nonzero features, a byte each, then their
    quotients as int32, which holds any count of a squared norm below 2**53.
    Two embeddings share it iff one's counts are a positive multiple of the
    other's."""
    ids = e.counts.nonzero()[0]
    counts = e.counts[ids].astype(np.int32)
    return ids.astype(np.uint8).tobytes() + (counts // math.gcd(*counts.tolist())).tobytes()


class QaBank:
    def __init__(self, limit_bytes: int):
        # at least DEFAULT_ENTRY_BYTES: EngineConfig.validate's qa_limit_bytes rule
        self.limit_bytes = limit_bytes
        self._by_query: dict[str, QaEntry] = {}
        self.entries = self._by_query.values()  # in insertion order
        self._held: list[QaEntry | None] = []  # row -> entry, None once evicted
        self._rows = CountRows()  # row -> embedding
        self._servable = bytearray()  # row -> 1 if its entry is servable, else 0
        self._groups: dict[bytes, list[QaEntry]] = {}  # direction -> its entries, in row order

    @property
    def used_bytes(self) -> int:
        return len(self.entries) * DEFAULT_ENTRY_BYTES

    def get(self, query: str) -> QaEntry | None:
        return self._by_query.get(query)

    def embedding(self, entry: QaEntry) -> Embedding:
        """The embedding of entry, one of this bank's entries, rebuilt from
        its row."""
        return self._rows.embedding(entry.row)

    def match(self, embedding: Embedding, tau: float, now: int) -> tuple[QaEntry | None, float]:
        """Best servable entry strictly above tau.

        Returns (entry or None, best similarity over servable entries);
        the similarity is -1.0 when no entry is servable. A hit bumps
        use_count and last_used. Of entries at the best similarity, the
        first row wins, the oldest entry.
        """
        rows = self._servable_rows()
        if not len(rows):
            return None, -1.0
        sims = cosine_similarities(self._rows.counts, self._rows.norm2, embedding)[rows]
        i = int(sims.argmax())
        return self._serve(self._held[rows[i]], float(sims[i]), tau, now)

    def match_repeat(self, entry: QaEntry, tau: float, now: int) -> tuple[QaEntry | None, float]:
        """match(self.embedding(entry), tau, now) for entry, one of this
        bank's: the lookup of an exact repeat of its query. While the rows
        are int8, the first servable entry of entry's direction
        (_direction) wins at similarity 1.0, with no scan; with no servable
        entry there, or with wider rows, match scans. Either way the
        result and the bump are match's, bit for bit:

        - cosines clip at 1.0, and a row's cosine with itself or with a
          positive multiple of it, a row of its direction, is exactly 1.0;
        - int8 rows have Na * Nb <= 127**4, so every other pair has an
          exact integer dot with dot**2 <= Na * Nb - 1, and its float64
          quotient stays below 1.0;
        - match takes the first row at the best similarity, and a
          direction's entries are in row order, which compaction keeps.
        """
        if self._rows.counts.dtype == np.int8:
            best = next((e for e in self._groups[entry.direction] if e.servable), None)
            if best is not None:
                return self._serve(best, 1.0, tau, now)
        return self.match(self.embedding(entry), tau, now)

    def _serve(self, best: QaEntry, best_sim: float, tau: float,
               now: int) -> tuple[QaEntry | None, float]:
        """best, bumped, if best_sim is above tau; else no entry."""
        if best_sim > tau and best_sim > -1.0:  # the -1.0 floor picks no entry, whatever tau is
            best.use_count += 1
            best.last_used = now
            return best, best_sim
        return None, best_sim

    def _servable_rows(self) -> np.ndarray:
        return np.flatnonzero(np.frombuffer(self._servable, bool))

    def insert(self, query: str, embedding: Embedding, answer: str | None, now: int,
               bar: Key | None = None) -> list[QaEntry]:
        """Insert or update; returns evicted entries.

        An exact-text duplicate is updated in place: its answer and
        last_used change, its use_count and row stay. A decoded
        answer is never replaced by an answer-less insert for the same
        text. An answered insert takes bar, from Retriever.bar over the
        current corpus; None leaves the entry to be keyed at the next
        refresh. A new query takes a new last row.
        """
        existing = self._by_query.get(query)
        if existing is not None:
            if answer is None and existing.answer is not None:
                return []
            existing.answer = answer
            existing.last_used = now
            if answer is not None:
                existing.stale = False
                existing.bar = bar
            self._servable[existing.row] = existing.servable
            return []
        evicted = self._evict_lfu(self.limit_bytes // DEFAULT_ENTRY_BYTES - 1)
        self._add(QaEntry(query, answer, now, bar=bar if answer is not None else None),
                  embedding)
        return evicted

    def mark_stale(self, query: str) -> None:
        """Stop serving query's entry until a new answer is inserted; its
        bar goes with it."""
        entry = self._by_query[query]
        entry.stale, entry.bar = True, None
        self._servable[entry.row] = False

    def _add(self, entry: QaEntry, embedding: Embedding) -> None:
        if self._rows.capacity == len(self._held) > len(self._by_query):  # full, with holes to drop
            live = [row for row, held in enumerate(self._held) if held is not None]
            self._rows.compact(live)
            self._held = [self._held[row] for row in live]
            self._servable = bytearray(self._servable[row] for row in live)
            for row, held in enumerate(self._held):
                held.row = row
        self._rows.append(embedding)
        entry.row, entry.direction = len(self._held), _direction(embedding)
        self._groups.setdefault(entry.direction, []).append(entry)
        self._held.append(entry)
        self._servable.append(entry.servable)
        self._by_query[entry.query] = entry

    def _remove(self, entry: QaEntry) -> None:
        del self._by_query[entry.query]
        self._held[entry.row] = None
        self._servable[entry.row] = False
        group = self._groups[entry.direction]
        group.remove(entry)
        if not group:
            del self._groups[entry.direction]

    def _evict_lfu(self, keep: int) -> list[QaEntry]:
        """Evict until at most keep entries remain; victims have the fewest
        uses (ties: least-recent last_used, then query). The key is unique,
        as the query is, so the victims and their order are fixed."""
        evicted = heapq.nsmallest(len(self.entries) - keep, self.entries,
                                  key=lambda e: (e.use_count, e.last_used, e.query))
        for victim in evicted:
            self._remove(victim)
        return evicted

    def set_limit(self, limit_bytes: int) -> list[QaEntry]:
        """Change the byte budget; shrinking evicts LFU immediately."""
        self.limit_bytes = limit_bytes
        return self._evict_lfu(limit_bytes // DEFAULT_ENTRY_BYTES)

    def refresh(self, retriever: Retriever, since: int, k_refresh: int) -> list[QaEntry]:
        """Mark entries stale when newly ingested chunks displace their grounding.

        The retriever's chunks from row since on are new; rows_since gives
        them, and one cosine_table call scores each against every held row,
        of which the servable ones count. A servable entry goes stale iff
        the best new chunk ranks before its bar by (-cosine, chunk_id); an
        entry without one is first keyed over the old rows. As chunks are
        never removed and cosine_table gives a pair the same bits whichever
        rows are scored with it, that is iff a new chunk enters the top
        k_refresh of the whole corpus, and
        a bar that survives is still the corpus's k_refresh-th key. Returns
        the entries marked stale.
        """
        rows = self._servable_rows()
        if not len(rows):
            return []
        ids, chunk_counts, chunk_norm2 = retriever.rows_since(since)
        sims = cosine_table(self._rows.counts, self._rows.norm2, chunk_counts, chunk_norm2)[rows]
        best_new = sims.max(axis=1, initial=-np.inf).tolist()
        marked = []
        for i, row in enumerate(rows.tolist()):
            entry = self._held[row]
            if entry.bar is None:
                entry.bar = retriever.bar(self.embedding(entry), k_refresh, since)
            cos, bar_id = entry.bar
            if best_new[i] > cos or best_new[i] == cos and any(
                    ids[j] < bar_id for j in np.flatnonzero(sims[i] == cos).tolist()):
                self.mark_stale(entry.query)
                marked.append(entry)
        return marked

    def pending(self) -> list[QaEntry]:
        """Entries needing decode work (answer-less or stale), oldest first."""
        return [e for e in self.entries if not e.servable]

    # -- persistence --------------------------------------------------------

    def persist(self, path) -> None:
        write_atomic(Path(path), jsonl_bytes(
            {
                "query": e.query,
                "answer": e.answer,
                "last_used": e.last_used,
                "use_count": e.use_count,
                "stale": e.stale,
            }
            for e in self.entries
        ))

    @classmethod
    def load(cls, path, limit_bytes: int, embedder: HashEmbedder | None = None) -> "QaBank":
        """The bank persisted at path in file order, or an empty one if there
        is none. A query on two lines raises BankError naming the second.
        Keys it does not read, such as older files' created_at, are ignored."""
        embedder = embedder or HashEmbedder()
        bank = cls(limit_bytes)
        path = Path(path)
        if not path.exists():
            return bank
        fields = {"query": (str,), "answer": (str, NoneType), "last_used": (int,),
                  "use_count": (int,), "stale": (bool,)}
        records = {}  # query -> its record
        for lineno, rec in read_jsonl(path, fields):
            if rec["query"] in records:
                raise BankError(f"{path}:{lineno}: duplicate query {rec['query']!r}")
            records[rec["query"]] = rec
        for rec in records.values():
            bank._add(QaEntry(rec["query"], rec["answer"], rec["last_used"], rec["use_count"],
                              rec["stale"]), embedder.embed(rec["query"]))
        if bank.used_bytes > limit_bytes:
            bank.set_limit(limit_bytes)
        return bank
