import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache.qa import QaBank
from percache.retrieval import (
    DEFAULT_ALPHA,
    DEFAULT_B,
    DEFAULT_K1,
    INITIAL_CAPACITY,
    CorpusStats,
    RankedChunk,
    Retriever,
)
from percache.textcore import (
    Embedding,
    HashEmbedder,
    cosine_similarities,
    cosine_similarity,
    split_words,
)

EMB = HashEmbedder()


# -- the per-chunk scan the array code replaced, kept as the reference -------


def bm25_score(query_terms, doc_terms, doc_len, stats, k1=DEFAULT_K1, b=DEFAULT_B):
    """Standard BM25. Empty corpus scores 0 for every document."""
    if stats.doc_count == 0:
        return 0.0
    score = 0.0
    avgdl = stats.avg_doc_len
    for term, qtf in query_terms.items():
        tf = doc_terms.get(term, 0)
        if tf == 0:
            continue
        denom = tf + k1 * (1.0 - b + b * doc_len / avgdl) if avgdl > 0 else tf + k1
        score += qtf * stats.idf(term) * tf * (k1 + 1.0) / denom
    return score


def minmax(scores):
    """Min-max normalize; an all-equal vector maps to 0.5 everywhere."""
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [0.5] * len(scores)
    return [(s - lo) / (hi - lo) for s in scores]


class ScanRetriever:
    """The hybrid ranking as a scan over chunks in id order, one BM25 sum
    and one cosine_similarity call per chunk."""

    def __init__(self, alpha=DEFAULT_ALPHA):
        self.alpha = alpha
        self.stats = CorpusStats()
        self.docs = {}

    def add_chunk(self, chunk_id, text, embedding):
        if chunk_id in self.docs:
            return
        terms = split_words(text)
        self.docs[chunk_id] = (Counter(terms), len(terms), embedding)
        self.stats.add_document(terms)

    def retrieve_top_k(self, query, k, query_emb):
        if not self.docs:
            return []
        query_terms = Counter(split_words(query))
        ids = sorted(self.docs)
        bm25 = [bm25_score(query_terms, self.docs[i][0], self.docs[i][1], self.stats) for i in ids]
        semantic = [cosine_similarity(query_emb, self.docs[i][2]) for i in ids]
        mm_bm25 = minmax(bm25)
        mm_sem = minmax(semantic)
        ranked = [
            RankedChunk(i, bm25[j], semantic[j], self.alpha * mm_bm25[j] + (1.0 - self.alpha) * mm_sem[j])
            for j, i in enumerate(ids)
        ]
        ranked.sort(key=lambda r: (-r.fused, r.chunk_id))
        return ranked[:k]

    def cosine_rank(self, embedding):
        scored = sorted(
            ((cosine_similarity(embedding, e), cid) for cid, (_, _, e) in self.docs.items()),
            key=lambda t: (-t[0], t[1]),
        )
        return [cid for _, cid in scored]


def _retriever(docs, alpha=DEFAULT_ALPHA):
    r = Retriever(alpha=alpha)
    for cid, text in docs:
        r.add_chunk(cid, text, r.embedder.embed(text))
    return r


# -- BM25 and normalization, through retrieve_top_k ---------------------------


def _bm25(r, query):
    return {c.chunk_id: c.bm25 for c in r.retrieve_top_k(query, len(r))}


def test_bm25_single_doc_oracle():
    # one document "the budget review", query "budget": df=1, N=1,
    # idf = ln(1 + (1-1+0.5)/(1+0.5)) = ln(4/3); tf=1, dl=avgdl=3 so the
    # length norm cancels: score = idf * 1 * (k1+1) / (1 + k1)  = idf
    r = _retriever([("c1", "the budget review")])
    assert _bm25(r, "budget")["c1"] == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)


def test_bm25_absent_term_zero():
    r = _retriever([("c1", "the budget review")])
    assert _bm25(r, "vendor")["c1"] == 0.0


def test_bm25_empty_corpus():
    assert Retriever().retrieve_top_k("a", 1) == []
    # chunks without a word: no postings, every score 0
    r = _retriever([("c1", ""), ("c2", "?!")])
    assert _bm25(r, "a") == {"c1": 0.0, "c2": 0.0}


def test_bm25_tf_saturation_monotone():
    # with fixed doc length, score strictly increases in tf but is bounded
    r = _retriever([(f"t{tf:02d}", " ".join(["x"] * tf + ["f"] * (30 - tf))) for tf in range(1, 30)])
    by_id = _bm25(r, "x")
    scores = [by_id[f"t{tf:02d}"] for tf in range(1, 30)]
    assert all(a < b for a, b in zip(scores, scores[1:]))
    bound = r.stats.idf("x") * (DEFAULT_K1 + 1.0)
    assert all(s < bound for s in scores)


def test_bm25_length_penalty():
    # same tf, longer doc scores lower when b > 0
    by_id = _bm25(_retriever([("short", "x a"), ("long", "x a b c d e f g")]), "x")
    assert by_id["short"] > by_id["long"]


def test_minmax_all_equal():
    # alpha 1 makes fused the normalized BM25; no known term: all scores equal
    r = _retriever(DOCS, alpha=1.0)
    assert [c.fused for c in r.retrieve_top_k("unheard of", 4)] == [0.5] * 4


def test_minmax_endpoints():
    docs = [("a", "x x y"), ("b", "y y y"), ("c", "x y y")]
    ranked = _retriever(docs, alpha=1.0).retrieve_top_k("x", 3)
    lo, hi = min(c.bm25 for c in ranked), max(c.bm25 for c in ranked)
    assert lo < hi
    assert [c.fused for c in ranked] == [(c.bm25 - lo) / (hi - lo) for c in ranked]
    assert [c.chunk_id for c in ranked] == ["a", "c", "b"]
    assert ranked[0].fused == 1.0 and ranked[-1].fused == 0.0


def _hand_fused(retr, docs, query, alpha=0.5):
    """Independent re-derivation of the fused ranking."""
    emb = HashEmbedder()
    stats = CorpusStats()
    for _, text in docs:
        stats.add_document(split_words(text))
    ids = sorted(i for i, _ in docs)
    by_id = dict(docs)
    bm = [
        bm25_score(Counter(split_words(query)), Counter(split_words(by_id[i])),
                   len(split_words(by_id[i])), stats)
        for i in ids
    ]
    se = [cosine_similarity(emb.embed(query), emb.embed(by_id[i])) for i in ids]
    mb, ms = minmax(bm), minmax(se)
    fused = [alpha * a + (1 - alpha) * b for a, b in zip(mb, ms)]
    order = sorted(range(len(ids)), key=lambda j: (-fused[j], ids[j]))
    return [ids[j] for j in order]


DOCS = [
    ("c1", "the budget review needs numbers from finance"),
    ("c2", "the meeting runs one hour on monday morning"),
    ("c3", "the project report sits in the shared drive"),
    ("c4", "training workshop at noon covers new tooling"),
]


def test_fusion_order_oracle():
    r = _retriever(DOCS)
    for query in ("budget review numbers", "meeting monday", "where is the report"):
        got = [c.chunk_id for c in r.retrieve_top_k(query, 4)]
        assert got == _hand_fused(r, DOCS, query), query


def test_ties_break_by_chunk_id():
    # duplicate texts score identically; order must be ascending chunk_id
    docs = [("b", "same text here"), ("a", "same text here"), ("c", "other words entirely")]
    r = _retriever(docs)
    got = [c.chunk_id for c in r.retrieve_top_k("same text", 3)]
    assert got[:2] == ["a", "b"]


def test_k_validation_and_empty():
    r = Retriever()
    with pytest.raises(ValueError):
        r.retrieve_top_k("q", 0)
    with pytest.raises(ValueError):
        r.retrieve_top_k("q", -1)
    assert r.retrieve_top_k("q", 3) == []


def test_add_chunk_idempotent():
    r = _retriever(DOCS)
    before = r.retrieve_top_k("budget review", 4)
    r.add_chunk("c1", "completely different text", r.embedder.embed("x"))
    assert r.retrieve_top_k("budget review", 4) == before
    assert len(r) == 4 and "c1" in r and "c9" not in r


def test_query_duplicate_chunk_top1():
    docs = DOCS + [("c9", "what is the budget review status")]
    r = _retriever(docs)
    top = r.retrieve_top_k("what is the budget review status", 1)
    assert top[0].chunk_id == "c9"


def test_k_larger_than_corpus():
    r = _retriever(DOCS)
    assert len(r.retrieve_top_k("budget", 99)) == 4


def test_given_embedding_is_used():
    # the query text still drives BM25; the embedding drives the semantic score
    r = _retriever(DOCS)
    other = EMB.embed("training workshop at noon")
    got = r.retrieve_top_k("budget", 4, embedding=other)
    scan = ScanRetriever()
    for cid, text in DOCS:
        scan.add_chunk(cid, text, EMB.embed(text))
    assert got == scan.retrieve_top_k("budget", 4, other)
    assert got != r.retrieve_top_k("budget", 4)


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(len(DOCS)))))
def test_insertion_order_invariance(perm):
    r = _retriever([DOCS[i] for i in perm])
    base = _retriever(DOCS)
    for query in ("budget", "meeting monday morning"):
        assert [c.chunk_id for c in r.retrieve_top_k(query, 4)] == [
            c.chunk_id for c in base.retrieve_top_k(query, 4)
        ]


# -- exactness: array code against the per-chunk scans, bit for bit -----------
#
# Scores are compared as raw float64 bits (float.hex tells 0.0 from -0.0),
# never with a tolerance. Dense random unit vectors sum many nonzero
# products, which is where a matrix-vector product parts from np.dot.

EXACT_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None)
EXACT_BUDGET_S = 20.0
CHUNK_WORDS = ("budget", "meeting", "review", "noon", "plan", "team", "x", "?!")
QUERY_WORDS = CHUNK_WORDS + ("unheard",)  # a term no chunk has
DEGENERATE = EMB.embed("")


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


def _ranked_bits(ranked) -> list[tuple]:
    return [(r.chunk_id, *_bits((r.bm25, r.semantic, r.fused))) for r in ranked]


def _dense(seed: int) -> Embedding:
    v = np.random.default_rng(seed).normal(size=EMB.dim)
    return Embedding(v / np.linalg.norm(v))


def _embedding(rng) -> Embedding:
    """A dense unit vector, a hashed text, or the degenerate fallback."""
    kind = rng.integers(4)
    if kind == 0:
        return DEGENERATE
    if kind == 1:
        return EMB.embed(" ".join(rng.choice(CHUNK_WORDS, size=int(rng.integers(1, 6)))))
    return _dense(int(rng.integers(2**32)))


def _within_budget(check):
    t0 = time.monotonic()
    check()
    took = time.monotonic() - t0
    assert took < EXACT_BUDGET_S, f"{check.__name__} took {took:.1f}s"


@EXACT_SETTINGS
@given(n=st.integers(0, 140), reserve=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
@example(n=INITIAL_CAPACITY - 1, reserve=0, seed=0)
@example(n=INITIAL_CAPACITY, reserve=0, seed=1)
@example(n=INITIAL_CAPACITY + 1, reserve=0, seed=2)
@example(n=INITIAL_CAPACITY + 1, reserve=4 * INITIAL_CAPACITY + 1, seed=3)
def _check_cosine(n, reserve, seed):
    rng = np.random.default_rng(seed)
    embeddings = [_embedding(rng) for _ in range(n)]
    if n > 2:
        embeddings[-1] = embeddings[0]  # a duplicate row
    r = Retriever(EMB)
    for i, e in enumerate(embeddings):
        if i == n // 2:
            r.reserve(reserve)  # one step past several doublings, rows kept
        r.add_chunk(f"c{i:03d}", "", e)
    matrix = r._emb[: len(r)]
    assert _bits(matrix.ravel()) == _bits(np.concatenate([e.values for e in embeddings] or [[]]))
    queries = [_embedding(rng) for _ in range(3)] + [DEGENERATE, Embedding(-DEGENERATE.values)]
    if embeddings:
        queries += [embeddings[0], Embedding(-embeddings[0].values)]
    for q in queries:
        got = cosine_similarities(matrix, q)
        assert got.shape == (n,)
        assert _bits(got) == _bits(cosine_similarity(q, e) for e in embeddings)


_text = st.lists(st.sampled_from(CHUNK_WORDS), max_size=6).map(" ".join)
_query = st.lists(st.sampled_from(QUERY_WORDS), max_size=5).map(" ".join)
# None: embed the text; an int: a dense vector from that seed
_emb_choice = st.one_of(st.none(), st.integers(0, 2**32 - 1))
_op = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 99), _text, _emb_choice),
    st.tuples(st.just("query"), _query, st.integers(1, 12), _emb_choice),
)
# 70 distinct chunks across the first growth, a query after each
_GROWTH_OPS = [
    op
    for i in range(70)
    for op in (("add", i, " ".join(CHUNK_WORDS[: 1 + i % 7]), i if i % 3 else None),
               ("query", "budget x unheard", 1 + i % 12, i % 2 or None))
]


@EXACT_SETTINGS
@given(ops=st.lists(_op, max_size=90))
@example(ops=_GROWTH_OPS)
def _check_retrieve(ops):
    r, scan = Retriever(EMB), ScanRetriever()
    for kind, a, b, choice in ops:
        text = a if kind == "query" else b
        emb = EMB.embed(text) if choice is None else _dense(choice)
        if kind == "add":
            r.add_chunk(f"c{a:02d}", text, emb)
            scan.add_chunk(f"c{a:02d}", text, emb)
            continue
        got = r.retrieve_top_k(text, b) if choice is None else r.retrieve_top_k(text, b, embedding=emb)
        want = scan.retrieve_top_k(text, b, emb)
        assert got == want
        assert _ranked_bits(got) == _ranked_bits(want)
    assert len(r) == len(scan.docs)


def _reference_match(bank, embedding):
    """QaBank.match's scalar loop, without the hit bookkeeping."""
    best, best_sim = None, -1.0
    for entry in bank.entries:
        if not entry.servable:
            continue
        sim = cosine_similarity(embedding, entry.embedding)
        if sim > best_sim or (sim == best_sim and best is not None and entry.created_at < best.created_at):
            best, best_sim = entry, sim
    return best, best_sim


@EXACT_SETTINGS
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 7), st.booleans(), st.booleans(), st.integers(0, 3)), max_size=24
    ),
    query=st.integers(0, 7),
    tau=st.sampled_from(["best", -2.0, -1.0, 0.0, 0.5, 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
# every servable similarity exactly -1.0: no entry, even below tau
@example(entries=[(7, True, False, 0), (7, True, False, 1)], query=6, tau=-2.0, seed=0)
# an exact three-way tie: the oldest, then the first in list order
@example(entries=[(0, True, False, 2), (0, True, False, 1), (0, True, False, 1)], query=0,
         tau=-2.0, seed=1)
def _check_match(entries, query, tau, seed):
    # pool: dense vectors, a hashed text, the degenerate vector and its
    # negation (similarity exactly -1.0); equal indices give exact ties
    dense = [_dense(seed + i) for i in range(4)]
    pool = dense + [Embedding(-dense[0].values), EMB.embed("budget review"),
                    DEGENERATE, Embedding(-DEGENERATE.values)]
    bank = QaBank(limit_bytes=1 << 30)
    for i, (idx, answered, stale, created_at) in enumerate(entries):
        bank.insert(f"q{i}", pool[idx], "ans" if answered else None, created_at)
        bank.get(f"q{i}").stale = stale
    want, want_sim = _reference_match(bank, pool[query])
    if tau == "best":
        tau = want_sim  # strictly above tau: a tie with tau misses
    hit, sim = bank.match(pool[query], tau, now=99)
    assert float(sim).hex() == float(want_sim).hex()
    assert hit is (want if want is not None and want_sim > tau else None)
    assert [(e.use_count, e.last_used) for e in bank.entries] == [
        (1, 99) if e is hit else (0, e.created_at) for e in bank.entries
    ]


@EXACT_SETTINGS
@given(
    chunks=st.lists(st.tuples(_text, _emb_choice), max_size=80),
    queries=st.lists(st.tuples(_query, _emb_choice, st.booleans()), min_size=1, max_size=8),
    new_share=st.floats(0.0, 1.0),
    k_refresh=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def _check_refresh(chunks, queries, new_share, k_refresh, seed):
    rng = np.random.default_rng(seed)
    r, scan = Retriever(EMB), ScanRetriever()
    new_ids = set()
    for i, (text, choice) in enumerate(chunks):
        emb = EMB.embed(text) if choice is None else _dense(choice)
        cid = f"c{rng.integers(40):02d}"  # repeated ids: the first add wins
        r.add_chunk(cid, text, emb)
        scan.add_chunk(cid, text, emb)
        if rng.random() < new_share:
            new_ids.add(cid)
    banks = (QaBank(limit_bytes=1 << 30), QaBank(limit_bytes=1 << 30))
    for j, (text, choice, answered) in enumerate(queries):
        emb = EMB.embed(text) if choice is None else _dense(choice)
        for bank in banks:
            bank.insert(f"{j}:{text}", emb, "ans" if answered else None, j)
        assert r.cosine_top_k(emb, k_refresh) == scan.cosine_rank(emb)[:k_refresh]
    marked = banks[0].refresh(new_ids, r.cosine_top_k, k_refresh)
    want = banks[1].refresh(new_ids, lambda emb, k: scan.cosine_rank(emb)[:k], k_refresh)
    assert [e.query for e in marked] == [e.query for e in want]
    assert [e.stale for e in banks[0].entries] == [e.stale for e in banks[1].entries]


@pytest.mark.parametrize("check", [_check_cosine, _check_retrieve, _check_match, _check_refresh],
                         ids=["cosine", "retrieve", "match", "refresh"])
def test_array_code_matches_scan(check):
    _within_budget(check)
