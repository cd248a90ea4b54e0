import hashlib
import math
from collections import Counter
from itertools import accumulate, chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache.knowledge import read_utf8
from percache.retrieval import Retriever
from percache.textcore import (
    EMBED_BLOCK,
    EMBED_DIM,
    EMBED_SEED,
    INITIAL_ROWS,
    CountRows,
    Embedding,
    HashEmbedder,
    TokenizerVocab,
    cosine_similarities,
    cosine_similarity,
    cosine_table,
    count_dtype,
    detokenize,
    split_words,
    tokenize,
)

from conftest import count_ints, embedding_from_counts, ladder_dtype, reference_tokenize

WITNESS = TokenizerVocab(["ab", "a", "b", "c", "bc"])
embed = HashEmbedder().embed


def byte_spans(tokens, vocab):
    """Each token's (start, end) byte offsets, from the vocabulary alone."""
    ends = list(accumulate(len(vocab.token_bytes(t)) for t in tokens))
    return list(zip([0] + ends, ends))


def test_tokenize_empty():
    assert tokenize("", WITNESS) == ()


def test_witness_vocab_ids():
    # canonical order: length-2 tokens lexicographic ("ab", "bc"), then
    # length-1 ("a", "b", "c"); derived by hand from the ordering rule
    assert tokenize("ab", WITNESS) == (0,)
    assert tokenize("bc", WITNESS) == (1,)
    assert tokenize("a", WITNESS) == (2,)


def test_an_empty_token_is_skipped():
    # an empty string is no token: the vocabulary is that of the rest
    with_empty, plain = TokenizerVocab(["", "ab"]), TokenizerVocab(["ab"])
    assert with_empty.size == plain.size == 257
    assert [with_empty.token_bytes(i) for i in range(with_empty.size)] == [
        plain.token_bytes(i) for i in range(plain.size)]
    assert tokenize("abc", with_empty) == tokenize("abc", plain) == (0, 1 + ord("c"))


def test_boundary_dependence_witness():
    # hand enumeration: greedy("abc") = "ab","c" but greedy("a")+greedy("bc")
    # = "a","bc" -- concatenation differs from tokenizing the whole
    whole = tokenize("abc", WITNESS)
    parts = tokenize("a", WITNESS) + tokenize("bc", WITNESS)
    assert whole == (0, 4)
    assert parts == (2, 1)
    assert whole != parts


def test_byte_spans_cover_source():
    assert byte_spans(tokenize("ab", WITNESS), WITNESS) == [(0, 2)]
    # "é" has no vocab entry: two single-byte fallbacks
    assert byte_spans(tokenize("abcé", WITNESS), WITNESS) == [(0, 2), (2, 3), (3, 4), (4, 5)]


def test_byte_fallback_total():
    tokens = tokenize("axbé", WITNESS)  # accented char has no vocab entry
    assert detokenize(tokens, WITNESS) == "axbé"


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="abcx ", max_size=40))
def test_tokenize_round_trip_and_spans(text):
    tokens = tokenize(text, WITNESS)
    data = text.encode("utf-8")
    spans = byte_spans(tokens, WITNESS)
    assert all(e > s for s, e in spans)  # no token is empty
    assert b"".join(data[s:e] for s, e in spans) == data
    assert detokenize(tokens, WITNESS) == text
    assert tokenize(text, WITNESS) == tokens  # determinism


# one- to four-byte UTF-8 characters, some sharing a first byte (0xC3 for
# "é" and "ü"), so that tokens are prefixes of others and a multi-byte
# token competes with the byte fallbacks of its first byte
TOKEN_ALPHABET = "ab éü€\U0001F600?"


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=5), max_size=12),
       st.text(alphabet=TOKEN_ALPHABET + "\nx", max_size=60))
@example(["ab", "a", "abab", "b a"], "ababab a b a\nab")  # prefixes of prefixes
@example(["é", "éü", "\U0001F600 "], "éüé \U0001F600 \U0001F600")  # multi-byte tokens
@example(["ab", "a"], "?? \n ?!")  # wordless text
@example([], "ab")  # no explicit token: every byte its own
@example(["aaa", "aa"], "aaaa")  # a longer length runs past the end
def test_tokenize_equals_the_reference_greedy_loop(tokens, text):
    vocab = TokenizerVocab(tokens)
    assert tokenize(text, vocab) == reference_tokenize(text, vocab)
    assert b"".join(map(vocab.token_bytes, tokenize(text, vocab))) == text.encode("utf-8")


@pytest.mark.parametrize("token", ["\n", "a\n", "\nb", "on\nfriday"])
def test_a_token_with_a_newline_is_refused(token):
    # a newline is always its own byte token, which lets an engine tokenize
    # its system prompt's lines once
    with pytest.raises(ValueError, match="newline"):
        TokenizerVocab(["a", token])


def test_vocab_file_round_trip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(WITNESS.to_text(), encoding="utf-8")
    loaded = TokenizerVocab.from_text(read_utf8(path))
    for text in ("abc", "a bc", "cab"):
        assert tokenize(text, loaded) == tokenize(text, WITNESS)


def test_embed_deterministic_and_normalized():
    a = embed("meeting at noon")
    b = embed("meeting at noon")
    assert np.array_equal(a.values, b.values)
    assert abs(np.linalg.norm(a.values) - 1.0) <= 1e-9


def test_embed_degenerate():
    e = embed("")
    assert e.values[0] == 1.0 and np.count_nonzero(e.values) == 1


def test_cosine_hand_oracle():
    a = embedding_from_counts([3, 4])
    b = embedding_from_counts([4, 3])
    assert cosine_similarity(a, b) == 24 / 25


def test_cosine_identity_and_orthogonal():
    e = embed("budget review")
    assert cosine_similarity(e, e) == 1.0
    ax0 = embedding_from_counts(np.eye(4)[0])
    ax1 = embedding_from_counts(np.eye(4)[1])
    assert cosine_similarity(ax0, ax1) == 0.0


def test_embed_keeps_integer_counts_and_their_squared_norm():
    # the last text repeats two words 3,000 times: counts near 3,000 in
    # three or four dimensions, a squared norm past int8's, within int16's
    texts = ("", "budget review budget review budget", "a b c d e f g h", "a b " * 3000)
    for text in texts:
        e, want = embed(text), embedding_from_counts(embed(text).counts)
        assert (e.counts.dtype, e.counts.tobytes(), e.norm2) == (want.counts.dtype, want.counts.tobytes(),
                                                                 want.norm2)
        assert e.values.tobytes() == want.values.tobytes() == _oracle_vector(text).tobytes()
    assert [embed(t).counts.dtype for t in texts] == [np.int8] * 3 + [np.int16]


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="abcdefg ", min_size=1, max_size=30), st.text(alphabet="abcdefg ", min_size=1, max_size=30))
def test_cosine_symmetry(s, t):
    a, b = embed(s), embed(t)
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


def _oracle_counts(text: str) -> np.ndarray:
    """Standalone re-derivation of the hashed feature counts (oracle): one
    feature at a time, each hashed by its own keyed constructor."""
    words = split_words(text)
    feats = words + [f"{x} {y}" for x, y in zip(words, words[1:])]
    vec = np.zeros(EMBED_DIM)
    key = EMBED_SEED.to_bytes(8, "little")
    for f in feats:
        v = int.from_bytes(hashlib.blake2b(f.encode(), key=key, digest_size=8).digest(), "little")
        vec[v % EMBED_DIM] += 1.0 if (v >> 63) & 1 == 0 else -1.0
    if not vec.any():
        vec[0] = 1.0
    return vec


def _oracle_vector(text: str) -> np.ndarray:
    """The oracle's counts as a unit vector: the hashed embedding."""
    vec = _oracle_counts(text)
    return vec / np.linalg.norm(vec)


# repeated words, digits, non-ASCII letters, punctuation alone, and the Kelvin
# sign, which lowercases to an ASCII "k"
ORACLE_WORDS = ("budget", "review", "budget", "12", "7", "caf\u00e9", "\u00c9T\u00c9", "stra\u00dfe",
                "\u212aelvin", "\u212a", "K", "?!", "--", "")
ORACLE_TEXTS = (st.lists(st.sampled_from(ORACLE_WORDS), max_size=12).map(" ".join)
                | st.text(alphabet="ab1 \u00e9\u212a?", max_size=20))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ORACLE_TEXTS)
def test_embed_equals_the_scalar_oracle_bit_for_bit(text):
    assert embed(text).values.tobytes() == _oracle_vector(text).tobytes()


# one word 3,000 times: counts of about 3,000 and 2,999, a squared norm
# past int8's, so its counts are int16
WIDE_TEXT = " ".join(["budget"] * 3000)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(ORACLE_TEXTS | st.just(WIDE_TEXT), min_size=1, max_size=3 * EMBED_BLOCK))
@example([""])  # a block of one, wordless
@example(["budget review"])  # a block of one
@example(["a", WIDE_TEXT, "", "b c"])  # int16 between int8 and wordless rows
# EMBED_BLOCK + 1 texts, the int16 one last but one
@example([f"item {i}" for i in range(EMBED_BLOCK - 1)] + [WIDE_TEXT, "?!"])
def test_count_rows_of_a_block_equal_each_text_alone(texts):
    # each row has its values and squared norm whichever block it is summed
    # in; the block's dtype is that of its largest squared norm
    embedder = HashEmbedder()
    assert embedder.embed(WIDE_TEXT).counts.dtype == np.int16
    counts, norm2 = embedder.count_rows([split_words(text) for text in texts])
    assert counts.shape == (len(texts), EMBED_DIM)
    assert counts.dtype == ladder_dtype(max(norm2))
    for text, row, n in zip(texts, counts, norm2):
        alone, (alone_n,) = embedder.count_rows([split_words(text)])
        assert row.tolist() == alone[0].tolist()
        assert (type(n), n) == (type(alone_n), alone_n)


class _LoggedKey:
    """A keyed BLAKE2b state whose copies log each digest they give, as the
    bytes it is the digest of."""

    def __init__(self, keyed, log: list[bytes], data: bytes = b""):
        self._keyed, self._log, self._data = keyed, log, data

    def copy(self) -> "_LoggedKey":
        return _LoggedKey(self._keyed.copy(), self._log, self._data)

    def update(self, data: bytes) -> None:
        self._keyed.update(data)
        self._data += data

    def digest(self) -> bytes:
        self._log.append(self._data)
        return self._keyed.digest()


# a small pool, so words repeat within a text, across blocks and across calls
POOL_TEXTS = st.lists(st.sampled_from(("budget", "review", "noon", "caf\u00e9", "\u212aelvin", "12", "?!")),
                      max_size=12).map(" ".join)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.lists(POOL_TEXTS, min_size=EMBED_BLOCK + 1, max_size=3 * EMBED_BLOCK),
       st.integers(0, 3 * EMBED_BLOCK))
# the same text in three blocks, a word twice in it, then a wordless text;
# one call, then the same words again in a second call
@example(["budget budget review"] * (2 * EMBED_BLOCK + 1) + ["", "noon budget"], 3 * EMBED_BLOCK)
@example(["budget budget review"] * (2 * EMBED_BLOCK + 1) + ["", "noon budget"], EMBED_BLOCK)
def test_an_add_hashes_each_distinct_word_once_and_every_bigram(texts, cut):
    # each add_chunks call (an open, then an arrival) takes one digest per
    # distinct word of its own chunks and one per bigram occurrence, and
    # every count row is the per-feature oracle's, bit for bit
    embedder, log = HashEmbedder(), []
    embedder._keyed = _LoggedKey(embedder._keyed, log)
    retriever, want = Retriever(embedder), Counter()
    pairs = [(f"c{i:03d}", text) for i, text in enumerate(texts)]
    for call in (pairs[:cut], pairs[cut:]):
        retriever.add_chunks(call)
        words = [[w.encode() for w in split_words(text)] for _, text in call]
        want.update(set(chain.from_iterable(words)))
        want.update(b" ".join(pair) for ws in words for pair in zip(ws, ws[1:]))
    assert Counter(log) == want
    assert len(retriever) == len(texts)
    for text, row, norm2 in zip(texts, retriever.rows.counts, retriever.rows.norm2):
        oracle = _oracle_counts(text)
        assert row.astype(np.float64).tobytes() == oracle.tobytes()
        assert norm2 == oracle @ oracle


def _dense(seed: int) -> Embedding:
    """Nonzero signed counts in every dimension."""
    v = np.random.default_rng(seed).integers(1, 60, size=EMBED_DIM)
    return embedding_from_counts(v * np.where(np.arange(EMBED_DIM) % 3, 1, -1))


AXIS = np.eye(EMBED_DIM)
# hashed texts (one without words embeds as [1, 0, ...]), dense vectors,
# axes and negated axes (their zero dots must be +0.0), the wordless vector
SYMMETRY_EMBEDDINGS = st.one_of(
    ORACLE_TEXTS.map(embed),
    st.integers(0, 2**32 - 1).map(_dense),
    st.integers(0, 3).map(lambda i: embedding_from_counts(AXIS[i])),
    st.integers(0, 3).map(lambda i: embedding_from_counts(-AXIS[i])),
    st.just(embed("")),
)
_EVERY_KIND = [embed("budget review"), _dense(0), embedding_from_counts(AXIS[0]),
               embedding_from_counts(AXIS[1]), embedding_from_counts(-AXIS[0]),
               embedding_from_counts(-AXIS[1]), embed("")]


def _rows(embeddings):
    """The count rows and squared norms of embeddings, as the retriever
    and the QA bank keep them."""
    return (np.array([e.counts for e in embeddings]),
            np.array([float(e.norm2) for e in embeddings]))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(SYMMETRY_EMBEDDINGS, min_size=1, max_size=8),
       st.lists(SYMMETRY_EMBEDDINGS, min_size=1, max_size=8))
@example(_EVERY_KIND, _EVERY_KIND)
def test_cosine_similarities_are_symmetric_bit_for_bit(entries, chunks):
    # the QA bank scores a chunk against its entry rows, the retriever an
    # entry against its chunk rows: both give every pair the same bits
    by_chunk = [cosine_similarities(*_rows(entries), c) for c in chunks]
    by_entry = [cosine_similarities(*_rows(chunks), e) for e in entries]
    for i in range(len(entries)):
        for j in range(len(chunks)):
            assert float(by_chunk[j][i]).hex() == float(by_entry[i][j]).hex()


def _reference_cosine(a: Embedding, b: Embedding) -> float:
    """The cosine in Python integers: an exact dot and squared norms, one
    square root of their product, one division and a clip."""
    ca, cb = [int(x) for x in a.counts], [int(x) for x in b.counts]
    na, nb = sum(x * x for x in ca), sum(x * x for x in cb)
    assert (na, nb) == (a.norm2, b.norm2)
    return max(-1.0, min(1.0, sum(x * y for x, y in zip(ca, cb)) / math.sqrt(na * nb)))


def _sparse(scale: int, nonzero: int, seed: int) -> Embedding:
    """nonzero signed counts of magnitude at most scale; with scale at
    most 2**22 the squared norm stays below 2**53."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(EMBED_DIM, dtype=np.int64)
    counts[rng.choice(EMBED_DIM, nonzero, replace=False)] = rng.integers(-scale, scale + 1, nonzero)
    counts[int(rng.integers(EMBED_DIM))] = scale  # never all zero
    return embedding_from_counts(counts)


# squared norms from 1 (the wordless text, a single count) to about 2**52,
# on every rung of the count dtypes, so that dots reach past 2**15, where an
# int16 sum would wrap, to about 2**52, still exact in float64
COUNT_EMBEDDINGS = st.one_of(
    ORACLE_TEXTS.map(embed),
    st.just(embed("")),
    st.builds(_sparse, st.sampled_from([1, 3, 2**8, 2**12, 2**22]),
              st.sampled_from([1, 2, 16, EMBED_DIM]), st.integers(0, 2**32 - 1)),
)
_one = lambda count, i=0: embedding_from_counts(np.eye(EMBED_DIM, dtype=np.int64)[i] * count)
_full = lambda count: embedding_from_counts(np.full(EMBED_DIM, count))
_mixed = lambda count: embedding_from_counts(np.where(np.arange(EMBED_DIM) % 2, count, -count))
_lead = lambda *counts: embedding_from_counts(list(counts) + [0] * (EMBED_DIM - len(counts)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(COUNT_EMBEDDINGS, min_size=1, max_size=6),
       st.lists(COUNT_EMBEDDINGS, min_size=1, max_size=6))
# int16 counts with dots past 2**15, which an int16 sum would wrap, and
# int64 counts with dots near 2**52
@example([_one(4096), _one(4097), _one(1, 1)], [_one(4096), _one(-4097), _one(3, 1)])
@example([_full(256), _full(257), _mixed(257)], [_full(256), _full(257), _mixed(256), embed("")])
@example([_full(2**22), _mixed(2**22 - 1), _one(2**26 - 1)],
         [_full(2**22 - 1), _mixed(2**22), _one(-(2**26 - 1)), _one(3, 5)])
def test_cosines_equal_the_integer_reference_bit_for_bit(left, right):
    want = [[float(_reference_cosine(a, b)).hex() for b in right] for a in left]
    by_right = [cosine_similarities(*_rows(left), b) for b in right]
    by_left = [cosine_similarities(*_rows(right), a) for a in left]
    table = cosine_table(*_rows(left), *_rows(right))
    for i, a in enumerate(left):
        assert [float(by_right[j][i]).hex() for j in range(len(right))] == want[i]
        assert [float(s).hex() for s in by_left[i]] == want[i]
        assert [float(s).hex() for s in table[i]] == want[i]
        assert [float(cosine_similarity(a, b)).hex() for b in right] == want[i]


def _block(embeddings):
    """The count rows of embeddings as one block, in the widest of their
    dtypes, and their squared norms: what CountRows.extend takes."""
    return np.array([e.counts for e in embeddings]), [e.norm2 for e in embeddings]


def _held_dtype(dtype, embeddings):
    """The dtype of CountRows's matrix, dtype before, after it extends by
    the block of embeddings: widened for good to the dtype of the block's
    largest squared norm."""
    return np.promote_types(dtype, ladder_dtype(max(e.norm2 for e in embeddings)))


# a squared norm just past int8's, 127**2 + 1, from counts that int8 would
# hold
_edge = embedding_from_counts(np.eye(EMBED_DIM, dtype=np.int64)[0] * 127
                              + np.eye(EMBED_DIM, dtype=np.int64)[1])


_ROW_OPS = st.lists(st.one_of(
    st.tuples(st.just("extend"), st.lists(COUNT_EMBEDDINGS, min_size=1, max_size=6)),
    st.tuples(st.just("reserve"), st.integers(0, 70)),
    st.tuples(st.just("compact"), st.integers(0, 2**32 - 1)),  # seeds which rows to keep
), max_size=10)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(_ROW_OPS, st.lists(COUNT_EMBEDDINGS, min_size=1, max_size=3))
# appends past the first growth, holes dropped, a float64 row widening the
# rows, then a reserve past several doublings and more holes
@example([("extend", [_one(1 + i, i) for i in range(INITIAL_ROWS)]), ("compact", 0),
          ("extend", [_one(3, 2)] * 5 + [_mixed(7)]), ("extend", [_one(1, 1), _full(257)]),
          ("reserve", 70), ("compact", 1), ("extend", [embed("budget review")])],
         [_one(2, 2), _full(256), embed("")])
# an int8 matrix scored against itself, with dots up to 256 * 7**2, which an
# int8 sum would wrap
@example([("extend", [_full(7), _mixed(7), _one(127), _one(-127, 3)]),
          ("extend", [_one(7, 1), _full(-7), embed("budget review")])],
         [_full(7), _one(-127), embed("")])
# counts at +-127 and +-128, a norm at 127**2 and one just past it, which
# widens the int8 rows to int16, a count at 32767, then an int64 row, a
# count at 32768
@example([("extend", [_one(127), _one(-127, 2), _full(7)]), ("extend", [_edge]),
          ("extend", [_one(-128, 2), _one(128)]), ("compact", 0), ("extend", [_one(3, 1)]),
          ("extend", [_one(32767, 1)]), ("extend", [_one(2**15)])],
         [_one(128), _one(-127, 2), _edge])
# the sum rule's edge over int8 rows: queries of squared norm 66,568 (258**2
# + 2**2), summed in int16, and 66,569, summed in int64, with dots up to
# 258 * 127
@example([("extend", [_one(127), _one(-127, 1), _lead(125, 22), _lead(-125, -22), _mixed(7)])],
         [_lead(258, 2), _lead(258, 2, 1), _lead(-258, 2, 1)])
# two int16 stores, rows and queries, with dots up to 2**24, which an int16
# sum would wrap
@example([("extend", [_full(181), _mixed(181), _one(4096), _one(-300, 3)])],
         [_full(181), _one(4096), _mixed(-181)])
def test_feature_major_count_rows_scan_equal_the_integer_reference(ops, queries):
    # CountRows keeps its matrix feature-major; its row view, the views
    # rows_since and bar take of it, and every scan over them must give the
    # rows and the cosines of the Python-integer reference through appends,
    # reserve, compaction with holes and the widenings from int8 to int16
    # and int64. A query sums in int16 over int8 rows up to a squared norm
    # of 66,568, past which Cauchy-Schwarz no longer bounds its partial sums
    # within int16
    assert [count_dtype(n * 127**2) for n in (66568, 66569)] == [np.int16, np.int64]
    rows, held = CountRows(), []  # held: each row's embedding
    dtype = np.dtype(np.int8)  # the ladder's: widened for good, also by rows compacted away
    r, added = Retriever(HashEmbedder()), []  # the same rows, never compacted
    memo = {}

    def want(q, embeddings):
        return [memo.setdefault((id(q), id(e)), float(_reference_cosine(q, e)).hex())
                for e in embeddings]

    def bar_bits(q, k, first):
        """Retriever.bar's key, as the reference ranks the first rows."""
        keys = sorted((-float.fromhex(c), f"c{i:03d}")
                      for i, c in enumerate(want(q, added[:first])))
        cos, cid = (-keys[k - 1][0], keys[k - 1][1]) if len(keys) >= k else (-math.inf, "")
        return float(cos).hex(), cid

    for kind, arg in ops:
        if kind == "extend":
            rows.extend(*_block(arg))
            held += arg
            for e in arg:
                r.add_chunk(f"c{len(added):03d}", "", e)
                added.append(e)
            dtype = _held_dtype(dtype, arg)
        elif kind == "reserve":
            rows.reserve(arg)
            r.rows.reserve(arg)
        else:
            rng = np.random.default_rng(arg)
            keep = [i for i in range(len(held)) if rng.random() < 0.6]
            rows.compact(keep)
            held = [held[i] for i in keep]
        assert rows.counts.dtype == dtype and len(rows.counts) == len(held)
        assert count_ints(rows.counts) == [count_ints(e.counts) for e in held]
        assert rows.norm2.tolist() == [e.norm2 for e in held]
        assert [(got.counts.dtype, got.counts.tobytes(), got.norm2) for got in map(
            rows.embedding, range(len(held)))] == [(e.counts.dtype, e.counts.tobytes(), e.norm2)
                                                   for e in held]
        since = len(held) // 2
        for q in queries:
            assert [s.hex() for s in cosine_similarities(rows.counts, rows.norm2, q).tolist()] \
                == want(q, held)
            assert [s.hex() for s in cosine_similarities(
                rows.counts[since:], rows.norm2[since:], q).tolist()] == want(q, held[since:])
            assert [s.hex() for s in cosine_similarities(
                rows.counts[:since], rows.norm2[:since], q).tolist()] == want(q, held[:since])
            for k, first in ((1, None), (3, len(added) // 2)):
                cos, cid = r.bar(q, k, first)
                assert (float(cos).hex(), cid) == bar_bits(q, k, first)
        table = cosine_table(rows.counts, rows.norm2, *_rows(queries))
        assert [[s.hex() for s in row] for row in table.T.tolist()] == [want(q, held)
                                                                        for q in queries]
        table = cosine_table(*_rows(queries), rows.counts[since:], rows.norm2[since:])
        assert [[s.hex() for s in row] for row in table.tolist()] == [want(q, held[since:])
                                                                      for q in queries]
        table = cosine_table(rows.counts, rows.norm2, rows.counts[since:], rows.norm2[since:])
        assert [[s.hex() for s in row] for row in table.tolist()] == [want(e, held[since:])
                                                                      for e in held]


def test_count_rows_before_their_first_row():
    # a new store is EMBED_DIM features wide before it holds a row: it can
    # be reserved, scanned, compacted and then appended to
    rows, e = CountRows(), embed("budget review")
    rows.reserve(3)
    assert rows.capacity == INITIAL_ROWS and rows.counts.shape == (0, EMBED_DIM)
    assert cosine_similarities(rows.counts, rows.norm2, e).tolist() == []
    rows.compact([])
    rows.append(e)
    assert rows.counts.dtype == np.int8 and count_ints(rows.counts) == [count_ints(e.counts)]
    assert rows.norm2.tolist() == [e.norm2]
    assert cosine_similarities(rows.counts, rows.norm2, e).tolist() == [1.0]


def test_embed_hash_oracle():
    s = "meeting at noon"
    a = _oracle_vector(s)
    b = _oracle_vector(s + " " + s)
    expected = float(np.dot(a, b))
    got = cosine_similarity(embed(s), embed(s + " " + s))
    assert got == pytest.approx(expected, abs=1e-12)

