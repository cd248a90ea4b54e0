"""Deterministic tokenization, embedding, and similarity primitives.

The tokenizer is a greedy longest-match segmenter over an explicit
vocabulary with a single-byte fallback, which makes it deliberately
boundary-dependent: tokenize(a) ++ tokenize(b) need not equal
tokenize(a ++ b). The rest of the system is built to stay correct in
spite of that. The one exception is a newline, which no token holds: the
split is exact there, so the engine tokenizes its system prompt's lines
once. At each offset tokenize tries only the token lengths the
vocabulary lists for that byte.

Embeddings are integer feature counts in one format, fixed here: every
embedding the system makes is EMBED_DIM wide and hashed with the key
EMBED_SEED. One rule, count_dtype, picks the integer dtype of every count
and every dot's sum. CountRows keeps many embeddings feature-major, in
int8 while every row's counts fit, and a query's cosine scan over them
gathers only the query's features, with exact integer dots and no BLAS
call.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

EMBED_DIM = 256
EMBED_SEED = 0x5ECAC4E

_WORD_RE = re.compile(r"[0-9a-z]+")


def split_words(text: str) -> list[str]:
    """Lowercase word split shared by the embedder and BM25 term extraction."""
    return _WORD_RE.findall(text.lower())


def split_lines(text: str) -> list[str]:
    r"""The lines of a text input (config, vocabulary, JSONL), split at
    "\n", "\r\n" and "\r" as a file read in text mode splits them, and at
    no other boundary str.splitlines knows (form feed, U+2028, ...): a
    value may hold those, and a line's number counts these line ends alone.
    A final line end leaves an empty last line."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def encodes_utf8(text: str) -> bool:
    """Whether UTF-8 encodes text: not if it holds a lone surrogate, which
    a JSON escape such as "\\ud800" gives."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class TokenizerVocab:
    """Greedy-matcher vocabulary: explicit tokens plus implicit byte fallbacks.

    Explicit tokens get ids 0..n-1 in canonical order (descending byte
    length, then lexicographic); byte b gets id n + b. Every byte is thus
    always representable and tokenization is total. Beside the ids, the
    vocabulary keeps for each first byte the lengths of the tokens that
    start with it, longest first, which are all tokenize tries there.

    No explicit token holds a newline, and a token that does is refused: a
    newline is always its own byte token, so no match crosses one and the
    ids of a text up to a newline do not depend on what follows it.
    """

    def __init__(self, tokens: list[str]):
        seen: dict[bytes, int] = {}
        for t in tokens:
            if "\n" in t:
                raise ValueError(f"a token may not contain a newline: {t!r}")
            bt = t.encode("utf-8")
            if not bt:
                continue
            if bt not in seen:
                seen[bt] = len(seen)
        ordered = sorted(seen)
        ordered.sort(key=len, reverse=True)  # stable: equal lengths stay in byte order
        self._id_by_bytes: dict[bytes, int] = {b: i for i, b in enumerate(ordered)}
        self._bytes_by_id: list[bytes] = ordered + [bytes([b]) for b in range(256)]
        self._byte_base = len(ordered)
        lengths: list[list[int]] = [[] for _ in range(256)]
        for b in ordered:  # longest first
            if len(b) not in lengths[b[0]]:
                lengths[b[0]].append(len(b))
        self._lengths_at = [tuple(ls) for ls in lengths]  # first byte -> token lengths

    @property
    def size(self) -> int:
        return self._byte_base + 256

    @classmethod
    def from_text(cls, text: str) -> "TokenizerVocab":
        """One token per non-empty line (split_lines)."""
        return cls([line for line in split_lines(text) if line])

    def to_text(self) -> str:
        """The explicit tokens, one per line, as from_text reads them."""
        return "".join(b.decode("utf-8") + "\n" for b in self._bytes_by_id[: self._byte_base])

    def token_bytes(self, token_id: int) -> bytes:
        return self._bytes_by_id[token_id]


def tokenize(text: str, vocab: TokenizerVocab) -> tuple[int, ...]:
    """Greedy longest-match segmentation over UTF-8 bytes. Deterministic and
    total. The ids alone fix each token's bytes (vocab.token_bytes).

    At each position only the lengths of the tokens that start with its
    byte are tried, longest first; none matching, the byte is its own
    token. A length past the end slices the whole rest, so a match there is
    the longest one and ends the text."""
    data = text.encode("utf-8")
    ids, lengths_at, base = vocab._id_by_bytes, vocab._lengths_at, vocab._byte_base
    tokens: list[int] = []
    pos, end = 0, len(data)
    while pos < end:
        byte = data[pos]
        for length in lengths_at[byte]:
            tid = ids.get(data[pos : pos + length])
            if tid is not None:
                tokens.append(tid)
                pos += length
                break
        else:
            tokens.append(base + byte)
            pos += 1
    return tuple(tokens)


def detokenize(tokens, vocab: TokenizerVocab) -> str:
    return b"".join(vocab.token_bytes(t) for t in tokens).decode("utf-8", errors="replace")


# the count dtypes, narrowest first, each with the largest squared norm of
# the count vectors it holds: a count is at most sqrt(norm2), and an
# embedding's squared norm is below 2**53 (HashEmbedder)
MAX_NORM2 = {np.dtype(np.int8): 127**2, np.dtype(np.int16): 32767**2, np.dtype(np.int64): 2**53}


def count_dtype(norm2: int) -> np.dtype:
    """The first dtype of MAX_NORM2 whose bound norm2 is within, else int64.
    For norm2 = Na * Nb it holds every partial sum of the dot of count
    vectors of squared norms Na and Nb, at most sqrt(Na * Nb) by
    Cauchy-Schwarz, so a dot summed in it is exact in any order."""
    for dtype, max_norm2 in MAX_NORM2.items():
        if norm2 <= max_norm2:
            return dtype
    return np.dtype(np.int64)


@dataclass(frozen=True)
class Embedding:
    """A feature-count vector and the unit vector it points along.

    counts holds EMBED_DIM integers in count_dtype(norm2), of norm2 their
    squared norm (a positive int). values, the unit vector counts /
    sqrt(norm2) in float64, is computed on first use.
    """

    counts: np.ndarray
    norm2: int

    @cached_property
    def values(self) -> np.ndarray:
        return self.counts.astype(np.float64) / math.sqrt(self.norm2)


def _cosines(dots: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """clip(dots / norms, -1, 1) in float64, a zero as +0.0."""
    sims = np.divide(dots, norms, dtype=np.float64)
    sims += 0.0  # -0.0 to +0.0
    np.minimum(sims, 1.0, out=sims)  # np.clip, at a third of its fixed cost
    return np.maximum(sims, -1.0, out=sims)


def cosine_table(counts: np.ndarray, norm2: np.ndarray,
                 other_counts: np.ndarray, other_norm2: np.ndarray) -> np.ndarray:
    """The cosine of each row of counts with each row of other_counts, a
    (len(counts), len(other_counts)) array, of count rows and squared norms
    as CountRows holds them. The dots are one np.einsum over every feature,
    with no BLAS call: QaBank.refresh pairs chunk rows, which at the default
    chunk_words of 100 hold about half the features, so a gather would copy
    them for little. An einsum sums in its operands' dtype, so both are
    cast first to count_dtype of the product of their dtypes' MAX_NORM2,
    which bounds Na * Nb: int16 for two int8 operands, int64 past them.
    That casts and sums faster than an einsum that casts inside the sum
    (dtype=).

    Every pair is clip(dot / sqrt(Na * Nb), -1, 1) with the dot an exact
    integer (count_dtype), converted exactly to float64 (below 2**53). So
    neither the summation order nor the zero terms a scan skips change a
    bit, and each cosine is symmetric in its two embeddings and the same
    whichever other rows are scored with it, in a table or a scan. Na and
    Nb are exact in float64 and their product is the correctly rounded
    integer product. A zero dot is +0.0, as an integer dot gives.
    """
    dtype = count_dtype(MAX_NORM2[counts.dtype] * MAX_NORM2[other_counts.dtype])
    counts, other_counts = counts.astype(dtype, copy=False), other_counts.astype(dtype, copy=False)
    dots = np.einsum("jm,jn->mn", counts.T, other_counts.T)
    return _cosines(dots, np.sqrt(np.multiply.outer(norm2, other_norm2)))


def cosine_similarities(counts: np.ndarray, norm2: np.ndarray, e: Embedding) -> np.ndarray:
    """The cosine of e with each row of counts: cosine_table's column for
    e, scanned term at a time. e's nonzero features (a query has 16-19 of
    256) gather their rows of counts.T, for CountRows.counts its own
    feature-major matrix, and np.einsum sums them weighted, with no BLAS
    call. The sum runs in the dtype of e's gathered counts, cast to
    count_dtype of e.norm2 times the rows' dtype's MAX_NORM2: int16 over
    int8 rows for any e.norm2 up to 66,568, that is (32767 / 127)**2."""
    nonzero = e.counts.nonzero()[0]
    query = e.counts[nonzero].astype(count_dtype(e.norm2 * MAX_NORM2[counts.dtype]))
    dots = np.einsum("j,jn->n", query, counts.T[nonzero])
    return _cosines(dots, np.sqrt(norm2 * float(e.norm2)))


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    """Cosine similarity of two embeddings: cosine_table's one entry."""
    return float(cosine_similarities(a.counts[None], np.array([float(a.norm2)]), b)[0])


INITIAL_ROWS = 16
# texts per HashEmbedder.count_rows call. A block's float64 sums, 64 KiB
# at EMBED_DIM, stay below glibc's 128 KiB mmap threshold; blocks of 64
# texts, which reach it, read slower QA hits and a higher peak RSS in pair
# runs (CHANGES.md)
EMBED_BLOCK = 32


class CountRows:
    """Embeddings as rows, in insertion order: the store the retriever ranks
    its chunks in and the QA bank its entries. One count matrix holds them
    beside a float64 vector of their squared norms; counts and norm2 view
    the held rows, for cosine_similarities and cosine_table.

    The matrix is feature-major, (EMBED_DIM, capacity): each feature's
    counts over the rows are one contiguous run, which a scan gathers for
    the query's nonzero features only (cosine_similarities). counts is its
    transpose, a (rows, EMBED_DIM) view, so counts[i] is row i and
    counts.tobytes() the rows in order; embedding(i) gives row i back as
    an Embedding.

    extend appends a block of rows, as HashEmbedder.count_rows gives them,
    in one transposed copy; append is a block of one. The matrix's dtype is
    count_dtype of the largest squared norm it has held, a rule that needs
    no scan of the counts: int8, then int16, then int64. A block that needs
    a wider one widens the matrix for good, copying the held rows only,
    never the unwritten capacity.
    The capacity starts at INITIAL_ROWS and doubles until the block fits; reserve grows
    it in one step, which leaves no outgrown matrices in the allocator's
    heap, and compact keeps a list of rows with room for as many again.
    """

    def __init__(self):
        self._counts = np.empty((EMBED_DIM, 0), np.int8)  # feature-major
        self._norm2 = np.empty(0)
        self._n = 0  # rows held

    @property
    def capacity(self) -> int:
        return len(self._norm2)

    @property
    def counts(self) -> np.ndarray:
        return self._counts[:, : self._n].T

    @property
    def norm2(self) -> np.ndarray:
        return self._norm2[: self._n]

    def embedding(self, row: int) -> Embedding:
        """The held row at index row as an Embedding: its counts in the
        dtype of its own squared norm, as HashEmbedder.embed gives them."""
        norm2 = int(self._norm2[row])
        return Embedding(self._counts[:, row].astype(count_dtype(norm2)), norm2)

    def append(self, e: Embedding) -> None:
        self.extend(e.counts[None], [e.norm2])

    def extend(self, counts: np.ndarray, norm2: list[int]) -> None:
        """Append the rows of counts, a (rows, EMBED_DIM) array, and their
        squared norms, as HashEmbedder.count_rows gives them."""
        n, end = self._n, self._n + len(counts)
        dtype = count_dtype(max(norm2, default=0))
        if end > len(self._norm2) or dtype.itemsize > self._counts.itemsize:
            self._move(slice(0, n), end, np.promote_types(self._counts.dtype, dtype))
        self._counts[:, n:end], self._norm2[n:end] = counts.T, norm2
        self._n = end

    def reserve(self, n: int) -> None:
        if n > len(self._norm2):
            self._move(slice(0, self._n), n, self._counts.dtype)

    def compact(self, keep: list[int]) -> None:
        self._move(keep, 2 * len(keep), self._counts.dtype)

    def _move(self, keep, room: int, dtype) -> None:
        """Move the rows keep selects to new dtype arrays with room for room rows."""
        capacity = max(len(self._norm2), INITIAL_ROWS)
        while capacity < room:
            capacity *= 2
        counts, norm2 = self._counts[:, keep], self._norm2[keep]
        self._counts, self._norm2 = np.empty((EMBED_DIM, capacity), dtype), np.empty(capacity)
        self._n = len(norm2)
        self._counts[:, : self._n], self._norm2[: self._n] = counts, norm2


class HashEmbedder:
    """Keyed feature-hash of word unigrams and bigrams into EMBED_DIM
    features.

    Each feature's 8-byte BLAKE2b digest keyed with EMBED_SEED, read
    little-endian, gives its index (the digest mod EMBED_DIM) and its sign
    (the top bit set: -1). The counts are the sum of the signed features;
    values divides them by their Euclidean norm. n words make 2n - 1
    features, an odd number of +-1 terms, so the sum is never zero unless
    the text has no words; such a text counts [1, 0, ..., 0].

    count_rows is the one embedding path: it hashes each text's features
    and sums a block of texts with one bincount, each feature's index
    offset by its text's row. Retriever.add_chunks cuts its chunks into
    blocks of EMBED_BLOCK, so no temporary grows with their number, and
    embed is count_rows of one text. A word's digest is kept in a memo that
    the caller passes and drops: add_chunks keeps one for its own call, so
    an open hashes each distinct word once and every bigram, and embed a
    fresh one. No memo outlives its call, and none holds bigrams, which
    mostly occur once. A text of fewer than 2**26 features
    (tens of millions of words) has a squared norm below 2**53, so every
    count and the squared norm are integers that float64 sums exactly in
    any order: a text's row has the same bits whichever block it is summed
    in, and the bits of a per-feature loop. values is then counts over the
    correctly rounded square root of an exact integer, np.linalg.norm's
    result, divided elementwise.

    Deterministic across machines and runs. It is the system's one
    embedder; Retriever and QaBank.load still take one as a parameter so
    that tests can substitute a fake.
    """

    dim = EMBED_DIM  # the width of every row and embedding it gives

    def __init__(self):
        # the keyed state before any feature: a copy updated with a feature
        # gives blake2b(feature, key=..., digest_size=8)
        self._keyed = hashlib.blake2b(key=EMBED_SEED.to_bytes(8, "little"), digest_size=8)

    def count_rows(self, word_lists: list[list[str]],
                   memo: dict[bytes, bytes] | None = None) -> tuple[np.ndarray, list[int]]:
        """The count rows of texts split into word_lists (by split_words), a
        (len(word_lists), EMBED_DIM) array in count_dtype of the largest
        squared norm, and the squared norms, as CountRows.extend takes them.
        memo maps each word (UTF-8) hashed so far to its digest; a word in it
        is not hashed again, and each new word is added. None: a fresh memo."""
        keyed, digests, sizes = self._keyed, [], []  # sizes: each text's feature count
        memo = {} if memo is None else memo
        for words in word_lists:
            start = len(digests)
            words = " ".join(words).encode().split()  # one encode per text: no word holds a space
            for word in words:
                digest = memo.get(word)
                if digest is None:
                    h = keyed.copy()
                    h.update(word)
                    digest = memo[word] = h.digest()
                digests.append(digest)
            for bigram in map(b" ".join, zip(words, words[1:])):
                h = keyed.copy()
                h.update(bigram)
                digests.append(h.digest())
            if not words:
                digests.append(bytes(8))  # index 0, sign +1: a wordless text's [1, 0, ..., 0]
            sizes.append(len(digests) - start)
        v = np.frombuffer(b"".join(digests), "<u8")
        bins = (v % EMBED_DIM).astype(np.intp)
        if len(sizes) > 1:
            bins += np.repeat(np.arange(0, len(sizes) * EMBED_DIM, EMBED_DIM), sizes)
        flat = np.bincount(bins, np.where(v >> 63, -1.0, 1.0), len(sizes) * EMBED_DIM)
        counts = flat.reshape(-1, EMBED_DIM)
        # one text, as each query is: a plain dot, a microsecond cheaper
        norm2 = ([int(flat @ flat)] if len(sizes) == 1
                 else (counts[:, None] @ counts[:, :, None]).ravel().astype(np.int64).tolist())
        return counts.astype(count_dtype(max(norm2, default=0))), norm2

    def embed(self, text: str) -> Embedding:
        """count_rows of text alone: a block of one row has that row's dtype."""
        counts, norm2 = self.count_rows([split_words(text)])
        return Embedding(counts[0], norm2[0])
