import math
import tempfile
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache.qa import DEFAULT_ENTRY_BYTES, QaBank
from percache.retrieval import (
    DEFAULT_ALPHA,
    DEFAULT_B,
    DEFAULT_K1,
    INITIAL_CAPACITY,
    RankedChunk,
    Retriever,
    top_k_order,
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


class CorpusStats:
    """BM25 statistics counted document by document: the document count,
    the word total and each term's document frequency."""

    def __init__(self):
        self.doc_count = 0
        self.total_len = 0
        self.doc_freq = Counter()

    @property
    def avg_doc_len(self):
        return self.total_len / self.doc_count if self.doc_count else 0.0

    def add_document(self, terms):
        self.doc_count += 1
        self.total_len += len(terms)
        self.doc_freq.update(set(terms))

    def idf(self, term):
        if self.doc_count == 0:
            return 0.0
        df = self.doc_freq[term]
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))


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

    def cosine_keys(self, embedding, k, ids=None):
        """The k best (cosine, chunk_id) keys among ids (every chunk by
        default), ordered by (-cosine, chunk_id)."""
        scored = sorted(
            ((cosine_similarity(embedding, self.docs[cid][2]), cid)
             for cid in (self.docs if ids is None else ids)),
            key=lambda t: (-t[0], t[1]),
        )
        return scored[:k]


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
    docs = [(f"t{tf:02d}", " ".join(["x"] * tf + ["f"] * (30 - tf))) for tf in range(1, 30)]
    by_id = _bm25(_retriever(docs), "x")
    scores = [by_id[f"t{tf:02d}"] for tf in range(1, 30)]
    assert all(a < b for a, b in zip(scores, scores[1:]))
    stats = CorpusStats()
    for _, text in docs:
        stats.add_document(split_words(text))
    bound = stats.idf("x") * (DEFAULT_K1 + 1.0)
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


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
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
        if stale:
            bank.mark_stale(f"q{i}")
    want, want_sim = _reference_match(bank, pool[query])
    if tau == "best":
        tau = want_sim  # strictly above tau: a tie with tau misses
    hit, sim = bank.match(pool[query], tau, now=99)
    assert float(sim).hex() == float(want_sim).hex()
    assert hit is (want if want is not None and want_sim > tau else None)
    assert [(e.use_count, e.last_used) for e in bank.entries] == [
        (1, 99) if e is hit else (0, e.created_at) for e in bank.entries
    ]


def _key_bits(keys) -> list[tuple[str, str]]:
    return [(float(c).hex(), cid) for c, cid in keys]


@EXACT_SETTINGS
@given(
    chunks=st.lists(st.tuples(_text, _emb_choice), max_size=80),
    queries=st.lists(st.tuples(_query, _emb_choice, st.booleans()), min_size=1, max_size=8),
    new_share=st.floats(0.0, 1.0),
    k_refresh=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def _check_refresh(chunks, queries, new_share, k_refresh, seed):
    # the chunks after the first (1 - new_share) arrive at once; half the
    # answered entries keep keys from retrieval, half are ranked at refresh
    rng = np.random.default_rng(seed)
    r, scan = Retriever(EMB), ScanRetriever()
    since = None
    for i, (text, choice) in enumerate(chunks):
        if since is None and i >= len(chunks) * (1.0 - new_share):
            since = len(r)
            bank = QaBank(limit_bytes=1 << 30)
            for j, (qtext, qchoice, answered) in enumerate(queries):
                qemb = EMB.embed(qtext) if qchoice is None else _dense(qchoice)
                r.retrieve_top_k(qtext, 1, embedding=qemb)
                keys = r.cosine_keys(qemb, k_refresh)
                assert _key_bits(keys) == _key_bits(scan.cosine_keys(qemb, k_refresh))
                bank.insert(f"{j}:{qtext}", qemb, "ans" if answered else None, j,
                            keys if j % 2 else None)
            old_ids = set(scan.docs)
        emb = EMB.embed(text) if choice is None else _dense(choice)
        cid = f"c{rng.integers(40):02d}"  # repeated ids: the first add wins
        r.add_chunk(cid, text, emb)
        scan.add_chunk(cid, text, emb)
    if since is None or since == len(r):
        return  # no new chunk arrived
    new_ids = set(scan.docs) - old_ids
    ids, rows = r.rows_since(since)
    assert ids == sorted(new_ids)
    assert _bits(rows.ravel()) == _bits(np.concatenate([scan.docs[cid][2].values for cid in ids]))
    want = []
    for e in bank.entries:
        if e.answer is not None and any(
                cid in new_ids for _, cid in scan.cosine_keys(e.embedding, k_refresh)):
            want.append(e.query)
    marked = bank.refresh(r, since, k_refresh)
    assert [e.query for e in marked] == want
    for e in bank.entries:
        assert e.stale == (e.query in want)
        if e.answer is not None:
            assert _key_bits(e.keys) == _key_bits(scan.cosine_keys(e.embedding, k_refresh))


def test_new_rows_gathered_once_per_arrival():
    # every entry of one arrival is scored against one gather of the new
    # rows, in chunk-id order with the embeddings' bits, and the keys are
    # those of a scan (repeated ids: the first add wins)
    r, scan = Retriever(EMB), ScanRetriever()
    bank = QaBank(limit_bytes=1 << 30)
    queries = [_dense(seed) for seed in range(4)]
    gathers = []
    rows_since = r.rows_since
    r.rows_since = lambda since: gathers.append(since) or rows_since(since)
    for step, count in enumerate((4, 5, 3, 2)):
        since = len(r)
        for i in range(count):
            emb, cid = _dense(100 + 10 * step + i), f"c{(7 * (10 * step + i)) % 23:02d}"
            r.add_chunk(cid, cid, emb)
            scan.add_chunk(cid, cid, emb)
        if step:
            new_ids = sorted(list(scan.docs)[since:])
            assert new_ids
            ids, rows = rows_since(since)
            assert ids == new_ids
            assert _bits(rows.ravel()) == _bits(
                np.concatenate([scan.docs[cid][2].values for cid in new_ids]))
            gathers.clear()
            bank.refresh(r, since, 3)
            assert gathers == [since]
            for e in bank.entries:
                assert _key_bits(e.keys) == _key_bits(scan.cosine_keys(e.embedding, 3))
        for j, q in enumerate(queries):  # answered again: every entry is fresh
            bank.insert(f"q{j}", q, "ans", step, r.cosine_keys(q, 3))


@pytest.mark.parametrize("check", [_check_cosine, _check_retrieve, _check_match, _check_refresh],
                         ids=["cosine", "retrieve", "match", "refresh"])
def test_array_code_matches_scan(check):
    _within_budget(check)


# -- one top-k helper ----------------------------------------------------------


@EXACT_SETTINGS
@given(scores=st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]), max_size=40),
       k=st.integers(1, 45))
@example(scores=[0.5, 0.25, 0.5, 0.5, 1.0, 0.5], k=3)  # four-way tie at the k-th place
@example(scores=[0.0, -0.0, 0.0, -0.0, 1.0], k=2)  # 0.0 and -0.0 tie
def test_top_k_order_is_the_stable_argsort_prefix(scores, k):
    scores = np.array(scores, dtype=float)
    assert top_k_order(scores, k).tolist() == np.argsort(-scores, kind="stable")[:k].tolist()


# -- incremental refresh against the full-scan rule, over many arrivals --------

AXES = [Embedding(np.eye(EMB.dim)[i]) for i in range(3)]


def _pool(seed: int) -> list[Embedding]:
    """Chunk and query embeddings. Orthogonal axes score exactly 0.0
    against each other, so keys tie at every place; equal indices give
    duplicate embeddings."""
    return (AXES + [Embedding(-AXES[1].values)] + [_dense(seed + i) for i in range(3)]
            + [EMB.embed("budget review"), DEGENERATE])


# a query text always has the same embedding, as in the engine
QUERIES = 10
_step = st.one_of(
    # chunk ids repeat across arrivals: a known id is not new
    st.tuples(st.just("arrive"),
              st.lists(st.tuples(st.integers(0, 29), st.integers(0, 8)), min_size=1, max_size=3)),
    # keys: from the cosine row retrieval kept; scan: after another query's
    # retrieval; none: unknown, as after QaBank.load
    st.tuples(st.just("answer"), st.integers(0, QUERIES - 1),
              st.sampled_from(["keys", "scan", "none", "unanswered"])),
    st.tuples(st.just("k"), st.integers(1, 5)),
)
_TIES_AT_KTH = [
    ("k", 2), ("arrive", [(5, 0), (9, 2)]), ("answer", 1, "keys"),
    ("arrive", [(2, 2)]),  # ties c05 and c09 at 0.0 and wins on its id: stale
    ("k", 3), ("answer", 1, "keys"), ("answer", 2, "none"), ("answer", 3, "unanswered"),
    ("arrive", [(7, 0), (5, 1)]),  # c05 is known; c07 ties into third place
    ("k", 1), ("answer", 3, "keys"), ("answer", 1, "scan"), ("arrive", [(1, 3)]),
]
_NEW_CHUNKS_TIE = [
    ("arrive", [(20, 1)]), ("answer", 0, "keys"), ("k", 1),
    ("arrive", [(9, 0), (2, 0)]),  # the new chunks tie: c02 ranks first, though added last
]
_K_RAISED = [
    ("arrive", [(5, 0), (6, 0), (7, 0)]), ("answer", 0, "keys"), ("k", 1),
    ("arrive", [(9, 1)]),  # keeps one key
    ("k", 3),
    ("arrive", [(8, 2)]),  # fourth: one kept key cannot show it, a full scan does
]


def _scan_refresh(bank, scan, new_ids, k):
    """The full-scan rule: an answered, fresh entry goes stale iff a new
    chunk enters its top k of the whole corpus."""
    marked = []
    for e in bank.entries:
        if e.answer is not None and not e.stale and any(
                cid in new_ids for _, cid in scan.cosine_keys(e.embedding, k)):
            bank.mark_stale(e.query)
            marked.append(e)
    return marked


@EXACT_SETTINGS
@given(steps=st.lists(_step, max_size=25), seed=st.integers(0, 2**32 - 1))
@example(steps=_TIES_AT_KTH, seed=0)
@example(steps=_NEW_CHUNKS_TIE, seed=0)
@example(steps=_K_RAISED, seed=0)
def _check_arrivals(steps, seed):
    pool = _pool(seed)
    r, scan = Retriever(EMB), ScanRetriever()
    bank, ref = QaBank(limit_bytes=1 << 30), QaBank(limit_bytes=1 << 30)
    k = 3
    for now, step in enumerate(steps):
        if step[0] == "k":
            k = step[1]
        elif step[0] == "answer":
            _, q, mode = step
            text, emb = f"q{q}", pool[q % len(pool)]
            keys = None
            if mode in ("keys", "scan"):
                if mode == "keys":
                    r.retrieve_top_k(text, 1, embedding=emb)
                else:
                    r.retrieve_top_k("other", 1, embedding=pool[(q + 1) % len(pool)])
                keys = r.cosine_keys(emb, k)
                assert _key_bits(keys) == _key_bits(scan.cosine_keys(emb, k))
            answer = None if mode == "unanswered" else "ans"
            bank.insert(text, emb, answer, now, keys)
            ref.insert(text, emb, answer, now)
        else:
            since, new_ids = len(r), set()
            for cid, j in step[1]:
                if f"c{cid:02d}" not in r:
                    new_ids.add(f"c{cid:02d}")
                r.add_chunk(f"c{cid:02d}", "budget" if j % 2 else "", pool[j])
                scan.add_chunk(f"c{cid:02d}", "budget" if j % 2 else "", pool[j])
            if not new_ids:
                continue  # the engine refreshes only when a chunk is new
            checked = {e.query for e in bank.entries if e.answer is not None and not e.stale}
            want = [e.query for e in _scan_refresh(ref, scan, new_ids, k)]
            assert [e.query for e in bank.refresh(r, since, k)] == want
            assert [e.stale for e in bank.entries] == [e.stale for e in ref.entries]
            for e in bank.entries:
                if e.query in checked:
                    assert _key_bits(e.keys) == _key_bits(scan.cosine_keys(e.embedding, k))
                else:
                    assert e.keys is None


def test_incremental_refresh_matches_full_scan():
    _within_budget(_check_arrivals)


# -- the QA bank's kept matrix against a scan over its entries -----------------

BANK_K = 2
_bank_step = st.one_of(
    # a new query, or an answer update of a known one; created_at ties
    st.tuples(st.just("insert"), st.integers(0, 23), st.booleans(), st.integers(0, 3)),
    st.tuples(st.just("arrive"),
              st.lists(st.tuples(st.integers(0, 29), st.integers(0, 8)), min_size=1, max_size=3)),
    st.tuples(st.just("limit"), st.integers(1, 24)),
    st.tuples(st.just("reload")),
)
_probe = st.tuples(st.integers(0, 8), st.sampled_from([-2.0, -1.0, 0.0, 0.5, 0.99]))
# past the first growth, holes from a shrink, rows appended after them, and
# a reload and an arrival in between
_HOLES_AND_GROWTH = (
    [("insert", q, True, q % 4) for q in range(20)] + [("limit", 6)]
    + [("insert", q, q % 2 == 0, 1) for q in range(20, 24)]
    + [("insert", q, True, 2) for q in range(12)] + [("arrive", [(1, 0), (2, 4)]), ("reload",),
                                                    ("limit", 24)]
    + [("insert", q, True, 3) for q in range(24)] + [("arrive", [(3, 1)])]
)


class _PoolEmbedder:
    """Embeds the query "q<i>" as the pool's entry i, so a reloaded bank
    keeps every embedding."""

    def __init__(self, pool):
        self.pool = pool

    def embed(self, text):
        return self.pool[int(text[1:]) % len(self.pool)]


def _check_probe(bank, embedding, tau, now):
    want, want_sim = _reference_match(bank, embedding)
    uses = {e.query: (e.use_count, e.last_used) for e in bank.entries}
    hit, sim = bank.match(embedding, tau, now)
    assert float(sim).hex() == float(want_sim).hex()
    assert hit is (want if want is not None and want_sim > tau else None)
    assert hit is None or (bank.get(hit.query) is hit and hit.servable)
    if hit is not None:
        uses[hit.query] = (uses[hit.query][0] + 1, now)
    assert {e.query: (e.use_count, e.last_used) for e in bank.entries} == uses


@EXACT_SETTINGS
@given(steps=st.lists(_bank_step, max_size=30), probes=st.lists(_probe, min_size=1, max_size=4),
       limit=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
@example(steps=_HOLES_AND_GROWTH, probes=[(0, -2.0), (3, 0.5), (7, 0.99)], limit=24, seed=0)
def _check_kept_matrix(steps, probes, limit, seed):
    pool = _pool(seed)
    embedder = _PoolEmbedder(pool)
    r = Retriever(EMB)
    bank = QaBank(limit_bytes=limit * DEFAULT_ENTRY_BYTES)
    with tempfile.TemporaryDirectory() as tmp:
        for now, step in enumerate(steps, start=10):
            evicted = []
            if step[0] == "insert":
                _, q, answered, created = step
                emb = embedder.embed(f"q{q}")
                keys = r.cosine_keys(emb, BANK_K) if answered and len(r) else None
                evicted = bank.insert(f"q{q}", emb, "ans" if answered else None, created, keys)
            elif step[0] == "arrive":
                since = len(r)
                for cid, j in step[1]:
                    r.add_chunk(f"c{cid:02d}", "budget" if j % 2 else "", pool[j])
                if len(r) > since:
                    bank.refresh(r, since, BANK_K)
            elif step[0] == "limit":
                evicted = bank.set_limit(step[1] * DEFAULT_ENTRY_BYTES)
            else:
                bank.persist(f"{tmp}/qa.jsonl")
                bank = QaBank.load(f"{tmp}/qa.jsonl", bank.limit_bytes, embedder)
            assert all(bank.get(e.query) is not e for e in evicted)
            query, tau = probes[now % len(probes)]
            _check_probe(bank, pool[query], tau, now)


def test_qa_matrix_matches_an_entry_scan():
    _within_budget(_check_kept_matrix)
