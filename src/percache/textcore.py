"""Deterministic tokenization, embedding, and similarity primitives.

The tokenizer is a greedy longest-match segmenter over an explicit
vocabulary with a single-byte fallback, which makes it deliberately
boundary-dependent: tokenize(a) ++ tokenize(b) need not equal
tokenize(a ++ b). The rest of the system is built to stay correct in
spite of that.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

EMBED_DIM = 256
EMBED_SEED = 0x5ECAC4E

_WORD_RE = re.compile(r"[0-9a-z]+")


def split_words(text: str) -> list[str]:
    """Lowercase word split shared by the embedder and BM25 term extraction."""
    return _WORD_RE.findall(text.lower())


class TokenizerVocab:
    """Greedy-matcher vocabulary: explicit tokens plus implicit byte fallbacks.

    Explicit tokens get ids 0..n-1 in canonical order (descending byte
    length, then lexicographic); byte b gets id n + b. Every byte is thus
    always representable and tokenization is total.
    """

    def __init__(self, tokens: list[str]):
        seen: dict[bytes, int] = {}
        for t in tokens:
            bt = t.encode("utf-8")
            if not bt:
                continue
            if bt not in seen:
                seen[bt] = len(seen)
        ordered = sorted(seen, key=lambda b: (-len(b), b))
        self._id_by_bytes: dict[bytes, int] = {b: i for i, b in enumerate(ordered)}
        self._bytes_by_id: list[bytes] = ordered + [bytes([b]) for b in range(256)]
        self._byte_base = len(ordered)
        self._by_length: dict[int, dict[bytes, int]] = {}
        for b, i in self._id_by_bytes.items():
            self._by_length.setdefault(len(b), {})[b] = i
        self._lengths = sorted(self._by_length, reverse=True)

    @property
    def size(self) -> int:
        return self._byte_base + 256

    @classmethod
    def from_text(cls, text: str) -> "TokenizerVocab":
        """One token per non-empty line; line ends split as in a file read
        in text mode."""
        lines = (line.rstrip("\n") for line in io.StringIO(text, newline=None))
        return cls([line for line in lines if line])

    def to_text(self) -> str:
        """The explicit tokens, one per line, as from_text reads them."""
        return "".join(b.decode("utf-8") + "\n" for b in self._bytes_by_id[: self._byte_base])

    def token_bytes(self, token_id: int) -> bytes:
        return self._bytes_by_id[token_id]

    def match_at(self, data: bytes, pos: int) -> tuple[int, int]:
        """Longest vocabulary match at byte offset pos; falls back to one byte."""
        remaining = len(data) - pos
        for length in self._lengths:
            if length > remaining:
                continue
            tid = self._by_length[length].get(data[pos : pos + length])
            if tid is not None:
                return tid, length
        return self._byte_base + data[pos], 1


def tokenize(text: str, vocab: TokenizerVocab) -> tuple[int, ...]:
    """Greedy longest-match segmentation over UTF-8 bytes. Deterministic and
    total. The ids alone fix each token's bytes (vocab.token_bytes)."""
    data = text.encode("utf-8")
    tokens: list[int] = []
    pos = 0
    while pos < len(data):
        tid, length = vocab.match_at(data, pos)
        tokens.append(tid)
        pos += length
    return tuple(tokens)


def detokenize(tokens, vocab: TokenizerVocab) -> str:
    return b"".join(vocab.token_bytes(t) for t in tokens).decode("utf-8", errors="replace")


@dataclass(frozen=True)
class Embedding:
    """Unit-norm feature vector."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two embeddings; inputs are unit-norm so this is a dot."""
    if a.dim != b.dim:
        raise ValueError(f"embedding dimension mismatch: {a.dim} != {b.dim}")
    return float(np.clip(np.dot(a.values, b.values), -1.0, 1.0))


def cosine_similarities(rows: np.ndarray, e: Embedding) -> np.ndarray:
    """cosine_similarity of e against each row of a 2-D float64 array, bit
    for bit: matmul computes each (1, d) @ (d, 1) product of the stack with
    the same vector dot routine np.dot uses. A matrix-vector product
    (rows @ e.values) or einsum sums in another order and can differ in the
    last bit."""
    if rows.shape[1] != e.dim:
        raise ValueError(f"embedding dimension mismatch: {rows.shape[1]} != {e.dim}")
    return np.clip(np.matmul(rows[:, None, :], e.values[:, None])[:, 0, 0], -1.0, 1.0)


class HashEmbedder:
    """Seeded feature-hash of word unigrams and bigrams into a fixed dimension.

    Each feature's keyed 8-byte BLAKE2b digest, read little-endian, gives its
    index (the digest mod dim) and its sign (the top bit set: -1.0). The
    vector is the sum of the signed features, divided by its Euclidean norm.
    n words make 2n - 1 features, an odd number of +-1.0 terms, so the sum
    is never zero unless the text has no words; such a text embeds as
    [1, 0, ..., 0].

    Every entry of the sum is a small integer count of +-1.0 terms, and its
    sum of squares an integer far below 2**53, so both are exact in float64
    whatever the order of summation. The norm is then the correctly rounded
    square root of an exact integer, np.linalg.norm's result, and division
    is elementwise. So embed, which sums with one bincount, gives every text
    the bits of a per-feature loop.

    Deterministic across machines and runs. Real embedding models can be
    plugged in behind the same embed(text) -> Embedding surface: the engine
    embeds its chunks at open, and QaBank.load its queries, one embed each.
    """

    def __init__(self, dim: int = EMBED_DIM, seed: int = EMBED_SEED):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        self.seed = seed
        # the keyed state before any feature: a copy updated with a feature
        # gives blake2b(feature, key=..., digest_size=8)
        self._keyed = hashlib.blake2b(key=seed.to_bytes(8, "little", signed=False), digest_size=8)

    def _digests(self, text: str) -> bytes:
        """The digests of text's unigram and bigram features, concatenated."""
        words = split_words(text)
        out = []
        for feature in chain(words, map(" ".join, zip(words, words[1:]))):
            h = self._keyed.copy()
            h.update(feature.encode("utf-8"))
            out.append(h.digest())
        return b"".join(out)

    def embed(self, text: str) -> Embedding:
        digests = self._digests(text)
        if not digests:
            return Embedding(np.eye(1, self.dim).ravel())
        v = np.frombuffer(digests, "<u8")
        vec = np.bincount((v % self.dim).astype(np.intp), np.where(v >> 63, -1.0, 1.0), self.dim)
        vec /= math.sqrt(vec @ vec)
        return Embedding(vec)
