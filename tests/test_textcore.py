import hashlib
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache.knowledge import read_utf8
from percache.textcore import (
    EMBED_DIM,
    EMBED_SEED,
    Embedding,
    HashEmbedder,
    TokenizerVocab,
    cosine_similarities,
    cosine_similarity,
    detokenize,
    split_words,
    tokenize,
)

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
    a = Embedding(np.array([0.6, 0.8]))
    b = Embedding(np.array([0.8, 0.6]))
    assert cosine_similarity(a, b) == pytest.approx(0.96, abs=1e-12)


def test_cosine_identity_and_orthogonal():
    e = embed("budget review")
    assert cosine_similarity(e, e) == pytest.approx(1.0, abs=1e-9)
    ax0 = Embedding(np.eye(4)[0])
    ax1 = Embedding(np.eye(4)[1])
    assert cosine_similarity(ax0, ax1) == 0.0


def test_cosine_dim_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity(Embedding(np.ones(2)), Embedding(np.ones(3)))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet="abcdefg ", min_size=1, max_size=30), st.text(alphabet="abcdefg ", min_size=1, max_size=30))
def test_cosine_symmetry(s, t):
    a, b = embed(s), embed(t)
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


def _oracle_vector(text: str, dim: int = EMBED_DIM, seed: int = EMBED_SEED) -> np.ndarray:
    """Standalone re-derivation of the hashed embedding (oracle): one
    feature at a time, each hashed by its own keyed constructor."""
    words = split_words(text)
    feats = words + [f"{x} {y}" for x, y in zip(words, words[1:])]
    vec = np.zeros(dim)
    key = seed.to_bytes(8, "little")
    for f in feats:
        v = int.from_bytes(hashlib.blake2b(f.encode(), key=key, digest_size=8).digest(), "little")
        vec[v % dim] += 1.0 if (v >> 63) & 1 == 0 else -1.0
    if not vec.any():
        vec[0] = 1.0
    return vec / np.linalg.norm(vec)


# repeated words, digits, non-ASCII letters, punctuation alone, and the Kelvin
# sign, which lowercases to an ASCII "k"
ORACLE_WORDS = ("budget", "review", "budget", "12", "7", "caf\u00e9", "\u00c9T\u00c9", "stra\u00dfe",
                "\u212aelvin", "\u212a", "K", "?!", "--", "")
ORACLE_TEXTS = (st.lists(st.sampled_from(ORACLE_WORDS), max_size=12).map(" ".join)
                | st.text(alphabet="ab1 \u00e9\u212a?", max_size=20))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ORACLE_TEXTS, st.sampled_from([7, 256]), st.sampled_from([1, EMBED_SEED]))
def test_embed_equals_the_scalar_oracle_bit_for_bit(text, dim, seed):
    got = HashEmbedder(dim, seed).embed(text).values
    assert got.tobytes() == _oracle_vector(text, dim, seed).tobytes()


def _dense(seed: int) -> Embedding:
    v = np.random.default_rng(seed).normal(size=EMBED_DIM)
    return Embedding(v / np.linalg.norm(v))


AXIS = np.eye(EMBED_DIM)
# hashed texts (one without words embeds as [1, 0, ...]), dense vectors,
# axes and negated axes (their zero dots are 0.0 or -0.0), the wordless vector
SYMMETRY_EMBEDDINGS = st.one_of(
    ORACLE_TEXTS.map(embed),
    st.integers(0, 2**32 - 1).map(_dense),
    st.integers(0, 3).map(lambda i: Embedding(AXIS[i])),
    st.integers(0, 3).map(lambda i: Embedding(-AXIS[i])),
    st.just(embed("")),
)
_EVERY_KIND = [embed("budget review"), _dense(0), Embedding(AXIS[0]), Embedding(AXIS[1]),
               Embedding(-AXIS[0]), Embedding(-AXIS[1]), embed("")]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(SYMMETRY_EMBEDDINGS, min_size=1, max_size=8),
       st.lists(SYMMETRY_EMBEDDINGS, min_size=1, max_size=8))
@example(_EVERY_KIND, _EVERY_KIND)
def test_cosine_similarities_are_symmetric_bit_for_bit(entries, chunks):
    # the QA bank scores a chunk against its entry rows, the retriever an
    # entry against its chunk rows: both give every pair the same bits
    e_rows = np.array([e.values for e in entries])
    c_rows = np.array([c.values for c in chunks])
    by_chunk = [cosine_similarities(e_rows, c) for c in chunks]
    by_entry = [cosine_similarities(c_rows, e) for e in entries]
    for i in range(len(entries)):
        for j in range(len(chunks)):
            assert float(by_chunk[j][i]).hex() == float(by_entry[i][j]).hex()


def test_embed_hash_oracle():
    s = "meeting at noon"
    a = _oracle_vector(s)
    b = _oracle_vector(s + " " + s)
    expected = float(np.dot(a, b))
    got = cosine_similarity(embed(s), embed(s + " " + s))
    assert got == pytest.approx(expected, abs=1e-12)


def test_hash_embedder_seed_sensitivity():
    a = HashEmbedder(seed=1).embed("budget")
    b = HashEmbedder(seed=2).embed("budget")
    assert not np.array_equal(a.values, b.values)
