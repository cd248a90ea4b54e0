"""Hybrid lexical + semantic ranking of knowledge chunks.

BM25 over lowercase word terms is fused with cosine similarity of the
hashed embeddings via weighted min-max normalization. Exact scan only:
personal corpora are small, so no ANN index.

BM25's statistics are read from the retriever's own state: the document
count is the number of rows, the average length a running word total over
it, and a term's document frequency the length of its posting list.

The scan is array code, and every score equals the per-chunk scalar
formula bit for bit. The chunks' embeddings are a textcore.CountRows,
whose cosines have exact integer dots: a scan gathers the feature-major
counts of the query's nonzero features only and sums them with no BLAS
call, for retrieve_top_k and for bar's rescan alike. Each term's
postings are one flat int64 array; BM25 gathers those of the query
terms, in order of first occurrence, computes each posting's
contribution with the scalar formula's operations, and sums them per
chunk with one bincount, which adds in input order from +0.0, as the
scalar loop does. Every score is elementwise in its row, so
normalization and fusion run in row order; the chunk id enters only to
break ties, through top_k_rows, which partitions rather than sorting the
whole corpus.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

import math

import numpy as np

from .textcore import (EMBED_BLOCK, CountRows, Embedding, HashEmbedder, cosine_similarities,
                       split_words)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_ALPHA = 0.5


@dataclass(frozen=True)
class RankedChunk:
    chunk_id: str
    bm25: float
    semantic: float
    fused: float


def top_k_rows(scores: np.ndarray, k: int, ids: list[str]) -> list[int]:
    """The rows of the k best scores, ordered by (-score, ids[row]). A
    partition finds the k-th value; only the rows that beat or tie it are
    sorted."""
    n = len(scores)
    rows = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k]) if k < n else np.arange(n)
    ranked = sorted(zip((-scores[rows]).tolist(), rows.tolist()), key=lambda t: (t[0], ids[t[1]]))
    return [row for _, row in ranked[:k]]


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Min-max normalize; an all-equal vector maps to 0.5 everywhere. No
    score is -0.0 or NaN (BM25 sums positive terms from +0.0, and
    cosine_table turns -0.0 into +0.0), so the extremes have the same bits
    whatever order they are found in."""
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.full(len(scores), 0.5)
    return (scores - lo) / (hi - lo)


class Retriever:
    """Exact-scan hybrid retriever over the chunk corpus.

    rows holds the chunks' embeddings in insertion order. Chunks are never
    removed, so rows_since(size) gives the chunks added since a known corpus
    size, which QaBank.refresh scores against its entries.

    add_chunks adds many chunks in blocks of EMBED_BLOCK: each text is
    split into words once, for the block's count rows (one count_rows call,
    one CountRows.extend) and for its postings, and only one block's words
    and rows are held at a time. Its blocks share one memo of word digests,
    so a call (an open, or an arrival) hashes each distinct word of its
    chunks once; the memo is dropped with the call. Each chunk's postings
    are appended to its terms' lists as its row is added. add_chunk adds
    one chunk with an embedding made elsewhere, through the same posting
    path; in any mix the two give the same state. Both skip a chunk id
    the retriever already holds, so the caller need not check.

    bar gives a QA entry's refresh bar, a (cosine, chunk_id) key. Asked
    with the embedding object of the last retrieve_top_k call, it reuses
    the cosine row that call computed, so keying a just-answered query
    costs no second scan. That row is the only state a read keeps;
    retrieve_top_k replaces it and adding a chunk drops it, so neither is
    safe beside another call.
    """

    def __init__(self, embedder: HashEmbedder | None = None, alpha: float = DEFAULT_ALPHA):
        self.embedder = embedder or HashEmbedder()
        self.alpha = alpha
        self._ids: list[str] = []  # row -> chunk id
        self._id_set: set[str] = set()
        self.rows = CountRows()
        # term -> row, tf, doc length of each chunk containing it, flat
        self._postings: dict[str, array] = {}
        self._total_len = 0  # words over all chunks
        # (embedding, its cosine row) of the last retrieve_top_k since the
        # last add
        self._last_cosine: tuple[Embedding, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def add_chunks(self, chunks: Iterable[tuple[str, str]]) -> None:
        """Add the (chunk_id, text) pairs whose id is new, in order, with
        the rows and postings that add_chunk(chunk_id, text,
        embedder.embed(text)) would give each."""
        memo: dict[bytes, bytes] = {}  # word -> digest, for this call alone
        block: dict[str, str] = {}
        for chunk_id, text in chunks:
            if chunk_id not in self._id_set:
                block.setdefault(chunk_id, text)
                if len(block) == EMBED_BLOCK:
                    self._add_block(block, memo)
                    block = {}
        if block:
            self._add_block(block, memo)

    def _add_block(self, block: dict[str, str], memo: dict[bytes, bytes]) -> None:
        words = [split_words(text) for text in block.values()]
        self.rows.extend(*self.embedder.count_rows(words, memo))
        for chunk_id, terms in zip(block, words):
            self._index(chunk_id, terms)

    def add_chunk(self, chunk_id: str, text: str, embedding: Embedding) -> None:
        if chunk_id not in self._id_set:
            self.rows.append(embedding)
            self._index(chunk_id, split_words(text))

    def _index(self, chunk_id: str, terms: list[str]) -> None:
        """Take the chunk whose count row was just appended, split into
        terms, and append its (row, tf, length) to each term's postings."""
        row = len(self._ids)
        for term, tf in Counter(terms).items():
            postings = self._postings.get(term)
            if postings is None:
                postings = self._postings[term] = array("q")
            postings.extend((row, tf, len(terms)))
        self._total_len += len(terms)
        self._ids.append(chunk_id)
        self._id_set.add(chunk_id)
        self._last_cosine = None

    def _bm25(self, query: str) -> np.ndarray:
        """BM25 of every chunk, in row order; the corpus is not empty. A
        term with postings has a document with words in it, so the average
        length is positive."""
        n = len(self._ids)
        terms = [(self._postings[term], qtf) for term, qtf in Counter(split_words(query)).items()
                 if term in self._postings]
        if not terms:
            return np.zeros(n)
        avgdl = self._total_len / n
        k1, b = DEFAULT_K1, DEFAULT_B
        dfs = [len(postings) // 3 for postings, _ in terms]
        qtf_idf = np.repeat([qtf * math.log(1.0 + (n - df + 0.5) / (df + 0.5))
                             for (_, qtf), df in zip(terms, dfs)], dfs)
        rows, tf, doc_len = np.frombuffer(b"".join(p for p, _ in terms), np.int64).reshape(-1, 3).T
        denom = tf + k1 * (1.0 - b + b * doc_len / avgdl)
        return np.bincount(rows, qtf_idf * tf * (k1 + 1.0) / denom, n)

    def _cosine(self, embedding: Embedding, rows: int | None = None) -> np.ndarray:
        """Cosine similarity of the first rows chunks (all if None) to
        embedding, in row order."""
        return cosine_similarities(self.rows.counts[:rows], self.rows.norm2[:rows], embedding)

    def retrieve_top_k(
        self, query: str, k: int, *, embedding: Embedding | None = None
    ) -> list[RankedChunk]:
        """The k best chunks by fused score, ties by chunk id. embedding, if
        given, is the query's embedding; otherwise the query is embedded."""
        if k <= 0:
            raise ValueError("k must be a positive integer")
        if not self._ids:
            return []
        if embedding is None:
            embedding = self.embedder.embed(query)
        bm25 = self._bm25(query)
        semantic = self._cosine(embedding)
        self._last_cosine = (embedding, semantic)
        fused = self.alpha * _minmax(bm25) + (1.0 - self.alpha) * _minmax(semantic)
        rows = top_k_rows(fused, k, self._ids)
        return [
            RankedChunk(self._ids[row], bm, sem, fu)
            for row, bm, sem, fu in zip(rows, bm25[rows].tolist(), semantic[rows].tolist(),
                                        fused[rows].tolist())
        ]

    def rows_since(self, since: int) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The chunks from row since on, in row order: their ids, and views
        of their count rows and squared norms."""
        return self._ids[since:], self.rows.counts[since:], self.rows.norm2[since:]

    def bar(self, embedding: Embedding, k: int, rows: int | None = None) -> tuple[float, str]:
        """The k-th best (cosine, chunk_id) key for embedding over the
        first rows chunks (all if None), by (-cosine, chunk_id); (-inf, "")
        if there are fewer than k."""
        last = self._last_cosine
        reuse = last is not None and last[0] is embedding
        sims = last[1][:rows] if reuse else self._cosine(embedding, rows)
        if len(sims) < k:
            return -math.inf, ""
        row = top_k_rows(sims, k, self._ids)[-1]
        return float(sims[row]), self._ids[row]
