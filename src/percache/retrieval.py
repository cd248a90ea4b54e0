"""Hybrid lexical + semantic ranking of knowledge chunks.

BM25 over lowercase word terms is fused with cosine similarity of the
hashed embeddings via weighted min-max normalization. Exact scan only:
personal corpora are small, so no ANN index.

BM25's statistics are read from the retriever's own state: the document
count is the number of rows, the average length a running word total over
it, and a term's document frequency the length of its posting list.

The scan is array code, and every score equals the per-chunk scalar
formula bit for bit. The chunk embeddings are the rows of one float64
matrix, scored by textcore.cosine_similarities. BM25 walks the postings of
each query term, in order of first occurrence, and adds the term's
contribution with the scalar formula's operation order. Min-max
normalization, fusion and the (-fused, chunk_id) order run over the chunks
in chunk-id order. Every ranking takes its k best through top_k_order, which
partitions rather than sorting the whole corpus.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import math

import numpy as np

from .textcore import Embedding, HashEmbedder, cosine_similarities, split_words

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_ALPHA = 0.5
INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class RankedChunk:
    chunk_id: str
    bm25: float
    semantic: float
    fused: float


def top_k_order(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, best first, ties by index: the
    first k of np.argsort(-scores, kind="stable"). A partition finds the
    k-th value; only the candidates that beat or tie it are sorted."""
    neg = -scores
    if k >= len(neg):
        return np.argsort(neg, kind="stable")
    kth = np.partition(neg, k - 1)[k - 1]
    candidates = np.flatnonzero(neg <= kth)  # ascending, so ties stay in index order
    return candidates[np.argsort(neg[candidates], kind="stable")[:k]]


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Min-max normalize; an all-equal vector maps to 0.5 everywhere. The
    bounds are the first minimum and maximum in order, as min() and max()
    pick them, so 0.0 and -0.0 resolve the same way."""
    lo, hi = scores[np.argmin(scores)], scores[np.argmax(scores)]
    if hi == lo:
        return np.full(len(scores), 0.5)
    return (scores - lo) / (hi - lo)


class Retriever:
    """Exact-scan hybrid retriever over the chunk corpus.

    Rows of the embedding matrix are chunks in insertion order; its
    capacity doubles when full. Chunks are never removed, so the chunks
    added since a known corpus size are the rows from that size on.

    cosine_keys ranks chunks as (cosine, chunk_id) keys, ordered by
    (-cosine, chunk_id). Asked for the whole corpus with the embedding
    object of the last retrieve_top_k call, it reuses the cosine row that
    call computed, so keying a just-answered query costs no second scan.
    Asked for the chunks from row since on, it keeps their chunk-id order
    and embedding rows until the next add, so an arrival keys every QA
    entry against one gather. Not safe for concurrent use: besides
    add_chunk, the first read after an add rebuilds the cached chunk-id
    order, retrieve_top_k replaces the kept cosine row, and cosine_keys the
    kept rows.
    """

    def __init__(
        self,
        embedder: HashEmbedder | None = None,
        alpha: float = DEFAULT_ALPHA,
    ):
        self.embedder = embedder or HashEmbedder()
        self.alpha = alpha
        self._ids: list[str] = []  # row -> chunk id
        self._id_set: set[str] = set()
        self._emb = np.empty((INITIAL_CAPACITY, self.embedder.dim))
        # term -> (row, tf, doc length) of each chunk containing it
        self._postings: dict[str, list[tuple[int, int, int]]] = {}
        self._total_len = 0  # words over all chunks
        self._order: np.ndarray | None = None  # rows in chunk-id order
        # (embedding, its cosine row in chunk-id order) of the last
        # retrieve_top_k since the last add
        self._last_cosine: tuple[Embedding, np.ndarray] | None = None
        # (since, the rows from since on in chunk-id order, their embeddings)
        # of the last cosine_keys call with since > 0 since the last add
        self._new_rows: tuple[int, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._id_set

    def reserve(self, n: int) -> None:
        """Make room for n chunks in one step: the capacity doubles until n
        fit. Growing once, not through every smaller size, leaves no
        outgrown matrices behind in the allocator's heap."""
        capacity = len(self._emb)
        while capacity < n:
            capacity *= 2
        if capacity > len(self._emb):
            grown = np.empty((capacity, self._emb.shape[1]))
            grown[: len(self._ids)] = self._emb[: len(self._ids)]
            self._emb = grown

    def add_chunk(self, chunk_id: str, text: str, embedding: Embedding) -> None:
        if chunk_id in self._id_set:
            return
        if embedding.dim != self._emb.shape[1]:
            raise ValueError(f"embedding dimension mismatch: {embedding.dim} != {self._emb.shape[1]}")
        row = len(self._ids)
        self.reserve(row + 1)
        self._emb[row] = embedding.values
        terms = split_words(text)
        for term, tf in Counter(terms).items():
            self._postings.setdefault(term, []).append((row, tf, len(terms)))
        self._total_len += len(terms)
        self._ids.append(chunk_id)
        self._id_set.add(chunk_id)
        self._order = None
        self._last_cosine = None
        self._new_rows = None

    def _id_order(self) -> np.ndarray:
        if self._order is None:
            self._order = np.array(sorted(range(len(self._ids)), key=self._ids.__getitem__),
                                   dtype=np.intp)
        return self._order

    def _bm25(self, query: str) -> np.ndarray:
        """BM25 of every chunk, in row order; the corpus is not empty. A
        term with postings has a document with words in it, so the average
        length is positive."""
        n = len(self._ids)
        scores = np.zeros(n)
        avgdl = self._total_len / n
        k1, b = DEFAULT_K1, DEFAULT_B
        for term, qtf in Counter(split_words(query)).items():
            postings = self._postings.get(term)
            if postings is None:
                continue
            df = len(postings)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            rows, tf, doc_len = np.array(postings).T
            denom = tf + k1 * (1.0 - b + b * doc_len / avgdl)
            scores[rows] += qtf * idf * tf * (k1 + 1.0) / denom
        return scores

    def _cosine(self, embedding: Embedding) -> np.ndarray:
        """Cosine similarity of every chunk to embedding, in chunk-id order."""
        return cosine_similarities(self._emb[: len(self._ids)], embedding)[self._id_order()]

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
        bm25 = self._bm25(query)[self._id_order()]
        semantic = self._cosine(embedding)
        self._last_cosine = (embedding, semantic)
        fused = self.alpha * _minmax(bm25) + (1.0 - self.alpha) * _minmax(semantic)
        top = top_k_order(fused, k)
        rows = self._id_order()[top]
        return [
            RankedChunk(self._ids[row], bm, sem, fu)
            for row, bm, sem, fu in zip(rows.tolist(), bm25[top].tolist(),
                                        semantic[top].tolist(), fused[top].tolist())
        ]

    def cosine_keys(self, embedding: Embedding, k: int, since: int = 0) -> list[tuple[float, str]]:
        """The k best (cosine, chunk_id) keys for embedding among the chunks
        from row since on (the whole corpus by default), ordered by
        (-cosine, chunk_id). Each row's cosine is computed alone, so a key
        has the same bits whichever rows are scored with it."""
        if since == 0:
            rows = self._id_order()
            last = self._last_cosine
            sims = last[1] if last is not None and last[0] is embedding else self._cosine(embedding)
        else:
            if self._new_rows is None or self._new_rows[0] != since:
                rows = np.array(sorted(range(since, len(self._ids)), key=self._ids.__getitem__),
                                dtype=np.intp)
                self._new_rows = (since, rows, self._emb[rows])
            _, rows, emb = self._new_rows
            sims = cosine_similarities(emb, embedding)
        top = top_k_order(sims, k)
        return list(zip(sims[top].tolist(), [self._ids[row] for row in rows[top].tolist()]))
