import math

import numpy as np
import pytest

from percache.qa import DEFAULT_ENTRY_BYTES, QaBank
from percache.retrieval import Retriever
from percache.textcore import EMBED_DIM, INITIAL_ROWS, MAX_NORM2, HashEmbedder

from conftest import embedding_from_counts

EMB = HashEmbedder()


def _bank(entries=8):
    return QaBank(limit_bytes=entries * DEFAULT_ENTRY_BYTES)


def _insert(bank, query, answer="ans", now=0, **kw):
    return bank.insert(query, EMB.embed(query), answer, now, **kw)


def test_match_exact_hit_and_strict_threshold():
    bank = _bank()
    _insert(bank, "when is the budget review due?", now=1)
    e = EMB.embed("when is the budget review due?")
    hit, sim = bank.match(e, tau=0.99, now=2)
    assert hit is not None and sim == pytest.approx(1.0)
    # strictly greater than tau: sim == tau must miss
    miss, sim2 = bank.match(e, tau=sim, now=3)
    assert miss is None and sim2 == sim


def test_match_updates_usage():
    bank = _bank()
    _insert(bank, "q one", now=1)
    entry = bank.get("q one")
    bank.match(EMB.embed("q one"), 0.5, now=9)
    assert entry.use_count == 1 and entry.last_used == 9
    bank.match(EMB.embed("zzz unrelated"), 0.5, now=10)  # miss
    assert entry.use_count == 1


def test_match_empty_sentinel():
    bank = _bank()
    entry, sim = bank.match(EMB.embed("anything"), 0.1, now=0)
    assert entry is None and sim == -1.0


def test_match_skips_answerless_and_stale():
    bank = _bank()
    _insert(bank, "pending query", answer=None, now=1)
    _insert(bank, "stale query", now=2)
    bank.mark_stale("stale query")
    entry, sim = bank.match(EMB.embed("pending query"), 0.1, now=3)
    assert entry is None
    entry, _ = bank.match(EMB.embed("stale query"), 0.1, now=3)
    assert entry is None


def test_match_tie_prefers_older():
    # the first inserted wins, though its query sorts last and an answer
    # update made it the most recently used
    bank = _bank()
    a = embedding_from_counts(np.eye(EMBED_DIM)[0])
    bank.insert("older", a, "x", 1)
    bank.insert("newer", a, "y", 2)
    bank.insert("older", a, "z", 3)
    entry, _ = bank.match(a, 0.5, now=9)
    assert entry.query == "older"


# "review" n times puts n unigrams and n - 1 bigrams on one feature: 65 times
# is past int8 (129**2), 16,385 times past int16 (32769**2)
@pytest.mark.parametrize("queries, dtype", [
    (["when is the budget review due?", "?!", ""], np.int8),
    (["when is the budget review due?", "review " * 65, "?!"], np.int16),
    (["when is the budget review due?", "review " * 16385, "?!", "review " * 65], np.int64),
])
def test_rebuilt_embedding_is_embed_bit_for_bit(queries, dtype):
    bank = _bank()
    for now, query in enumerate(queries):
        _insert(bank, query, now=now)
    assert bank._rows.counts.dtype == dtype
    for entry in bank.entries:
        kept, e = bank.embedding(entry), HashEmbedder().embed(entry.query)
        assert (kept.counts.dtype, kept.counts.tobytes(), kept.norm2) == (
            e.counts.dtype, e.counts.tobytes(), e.norm2)


def test_repeat_lookup_takes_the_first_servable_multiple():
    # "pending" is twice "a" and "stale" thrice: one direction, in row order
    bank = _bank()
    axis = np.eye(EMBED_DIM)[0]
    bank.insert("pending", embedding_from_counts(2 * axis), None, 1)
    bank.insert("stale", embedding_from_counts(3 * axis), "x", 2)
    bank.mark_stale("stale")
    bank.insert("a", embedding_from_counts(axis), "y", 3)
    bank.insert("other", embedding_from_counts(np.eye(EMBED_DIM)[1]), "z", 4)
    hit, sim = bank.match_repeat(bank.get("pending"), 0.99, now=9)
    assert hit is bank.get("a") and float(sim).hex() == (1.0).hex()
    assert (hit.use_count, hit.last_used) == (1, 9)
    # at tau 1.0 even a repeat misses, with nothing bumped
    assert bank.match_repeat(bank.get("stale"), 1.0, now=10) == (None, 1.0)
    assert (hit.use_count, hit.last_used) == (1, 9)
    # with no servable entry in the direction the repeat scans
    bank.mark_stale("a")
    hit, sim = bank.match_repeat(bank.get("pending"), -2.0, now=11)
    assert hit is bank.get("other") and sim == 0.0
    # evicted entries leave their direction
    bank.set_limit(DEFAULT_ENTRY_BYTES)
    assert list(bank._groups) == [hit.direction] and bank._groups[hit.direction] == [hit]


def test_repeat_lookup_of_rows_past_int8_scans(monkeypatch):
    # rows past int8 may pair to Na * Nb past 127**4, where a cosine of
    # two directions can round to 1.0, so every exact repeat scans; it must
    # give match of the entry's rebuilt embedding, entry, similarity bits
    # and bump. 2**26 * e0 + e1 is such a row: its cosine with e0 rounds to
    # 1.0, and as the older entry it is the scan's winner for e0's repeat
    axis = np.eye(EMBED_DIM, dtype=np.int64)
    wide = embedding_from_counts(2**26 * axis[0] + axis[1])
    scans = []
    match = QaBank.match
    monkeypatch.setattr(QaBank, "match", lambda *a: scans.append(1) or match(*a))
    for first, dtype in ((EMB.embed("review " * 65), np.int16), (wide, np.int64)):
        bank = _bank()
        bank.insert("first", first, "w", 1)
        bank.insert("axis", embedding_from_counts(axis[0]), "a", 2)
        _insert(bank, "when is the budget review due?", now=3)
        bank.insert("pending", embedding_from_counts(2 * axis[0]), None, 4)
        assert bank._rows.counts.dtype == dtype
        for now, entry in enumerate(list(bank.entries) * 3, start=5):
            tau = (-2.0, 0.5, 1.0)[now % 3]
            uses = {e.query: (e.use_count, e.last_used) for e in bank.entries}
            want, want_sim = match(bank, bank.embedding(entry), tau, now)
            bumped = {e.query: (e.use_count, e.last_used) for e in bank.entries}
            for e in bank.entries:
                e.use_count, e.last_used = uses[e.query]
            scans.clear()
            hit, sim = bank.match_repeat(entry, tau, now)
            assert hit is want and (float(sim).hex(), len(scans)) == (float(want_sim).hex(), 1)
            assert {e.query: (e.use_count, e.last_used) for e in bank.entries} == bumped
        hit, sim = bank.match_repeat(bank.get("axis"), 0.5, now=99)
        assert (hit.query, sim) == ("first" if first is wide else "axis", 1.0)


def test_insert_never_downgrades():
    bank = _bank()
    _insert(bank, "q", answer="decoded", now=1)
    _insert(bank, "q", answer=None, now=2)
    assert bank.get("q").answer == "decoded"


def test_insert_replaces_in_place_and_clears_stale():
    bank = _bank()
    _insert(bank, "q", answer="old", now=1)
    bank.mark_stale("q")
    _insert(bank, "q", answer="new", now=2)
    assert bank.get("q").answer == "new" and not bank.get("q").stale
    assert len(bank.entries) == 1


def test_lfu_eviction_shadow():
    bank = _bank(entries=3)
    _insert(bank, "a", now=1)
    _insert(bank, "b", now=2)
    _insert(bank, "c", now=3)
    bank.match(EMB.embed("a"), 0.9, now=4)
    bank.match(EMB.embed("a"), 0.9, now=5)
    bank.match(EMB.embed("c"), 0.9, now=6)
    # b has use_count 0: it is the unique LFU victim
    evicted = _insert(bank, "d", now=7)
    assert [e.query for e in evicted] == ["b"]
    assert bank.used_bytes <= bank.limit_bytes


def test_lfu_tie_breaks():
    bank = _bank(entries=2)
    _insert(bank, "x", now=5)
    _insert(bank, "y", now=3)  # equal use_count, least-recent last_used
    evicted = _insert(bank, "z", now=9)
    assert [e.query for e in evicted] == ["y"]


def test_set_limit_shrink():
    bank = _bank(entries=4)
    for i in range(4):
        _insert(bank, f"q{i}", now=i)
    bank.match(EMB.embed("q0"), 0.9, now=10)
    evicted = bank.set_limit(2 * DEFAULT_ENTRY_BYTES)
    assert len(evicted) == 2 and bank.used_bytes <= bank.limit_bytes
    assert bank.get("q0") is not None  # the used entry survived


def _check_rows(bank, now):
    """Each entry's kept embedding is embed's, bit for bit, and a servable
    entry matches its own embedding. Returns the next now."""
    for e in bank.entries:
        got, want = bank.embedding(e), EMB.embed(e.query)
        assert (got.counts.dtype, got.counts.tobytes(), type(got.norm2), got.norm2) == (
            want.counts.dtype, want.counts.tobytes(), type(want.norm2), want.norm2)
        if e.servable:
            now += 1
            assert bank.match(got, 0.99, now)[0] is e
    return now


def test_rows_survive_compaction_and_widening():
    # 8 entries over INITIAL_ROWS rows: evictions leave holes, which each
    # insert into full rows drops, renumbering the rows; the 21st query's
    # int16 counts widen the matrix for good
    bank, now = _bank(entries=8), 0
    wide = " ".join(["budget"] * 3000)
    assert MAX_NORM2[np.dtype(np.int8)] < EMB.embed(wide).norm2 <= MAX_NORM2[np.dtype(np.int16)]
    queries = [f"note {i} for the week" for i in range(40)]
    queries.insert(20, wide)
    for i, query in enumerate(queries):
        now += 1
        _insert(bank, query, answer=None if i % 5 == 0 else "ans", now=now)
        now = _check_rows(bank, now)
        if i % 7 == 3:
            bank.mark_stale(query)
            now = _check_rows(bank, now)
    assert bank._rows.counts.dtype == np.int16
    assert len(bank._rows.norm2) <= INITIAL_ROWS < len(queries)  # the holes were dropped


def _four_squares(n):
    """Four integers whose squares sum to n (Lagrange: they exist)."""
    for a in range(math.isqrt(n), -1, -1):
        for b in range(math.isqrt(n - a * a), -1, -1):
            for c in range(math.isqrt(n - a * a - b * b), -1, -1):
                d = math.isqrt(n - a * a - b * b - c * c)
                if a * a + b * b + c * c + d * d == n:
                    return [a, b, c, d]


def _table(rows, cosines):
    """A retriever over a fixed cosine table, and the query embeddings it is
    keyed for: rows are the chunk ids in insertion order, and
    cosines[query][chunk_id] the cosine of the query's embedding, a
    multiple of 0.01. Query i embeds as axis i. A chunk's row counts 100
    times its cosines on the queries' axes, and four more counts bring its
    squared norm to 100**2, so each cosine is count / 100.0 exactly; a
    chunk's cosines must square-sum to at most 1."""
    r = Retriever(EMB)
    for cid in rows:
        counts = [round(100 * c[cid]) for c in cosines.values()]
        counts += _four_squares(100**2 - sum(x * x for x in counts))
        r.add_chunk(cid, "", embedding_from_counts(counts + [0] * (EMB.dim - len(counts))))
    return r, {q: embedding_from_counts(np.eye(EMB.dim)[i]) for i, q in enumerate(cosines)}


def test_refresh_marks_stale():
    r, emb = _table(["old1", "old2", "old3", "new1"], {
        "about budget": {"new1": 0.9, "old2": 0.7, "old3": 0.6, "old1": 0.1},
        "about meeting": {"old1": 0.9, "old2": 0.7, "old3": 0.6, "new1": 0.1},
        "no answer yet": {"new1": 0.3, "old1": 0.1, "old2": 0.1, "old3": 0.1},
    })
    bank = _bank()
    bank.insert("about budget", emb["about budget"], "ans", 1)
    bank.insert("about meeting", emb["about meeting"], "ans", 2)
    bank.insert("no answer yet", emb["no answer yet"], None, 3)
    marked = bank.refresh(r, since=3, k_refresh=3)
    assert [e.query for e in marked] == ["about budget"]
    assert bank.get("about budget").stale and bank.get("about budget").bar is None
    assert not bank.get("about meeting").stale
    assert not bank.get("no answer yet").stale  # answer-less entries skipped
    # keyed over the old rows: the third of old1, old2, old3
    assert bank.get("about meeting").bar == (0.6, "old3")
    assert bank.get("no answer yet").bar is None


def test_refresh_respects_k():
    r, emb = _table(["a", "b", "new"], {"q": {"a": 0.9, "b": 0.8, "new": 0.7}})
    bank = _bank()
    bank.insert("q", emb["q"], "ans", 1)
    marked = bank.refresh(r, since=2, k_refresh=2)
    assert marked == []
    bank = _bank()
    bank.insert("q", emb["q"], "ans", 1)
    marked = bank.refresh(r, since=2, k_refresh=3)
    assert [e.query for e in marked] == ["q"]


def test_refresh_tests_kept_keys_against_the_new_chunks_only():
    # the kept bar stands for the old chunks: only rows from since on are
    # gathered, once, and no old row is ranked; the marked entry drops its bar
    r, emb = _table(["a", "b", "c", "new"], {"q": {"a": 0.9, "b": 0.8, "c": 0.7, "new": 0.85}})
    calls = []
    rows_since, bar = r.rows_since, r.bar
    r.rows_since = lambda since: calls.append(since) or rows_since(since)
    r.bar = lambda *args: calls.append("ranked") or bar(*args)

    bank = _bank()
    bank.insert("q", emb["q"], "ans", 1, bar=(0.8, "b"))
    assert [e.query for e in bank.refresh(r, since=3, k_refresh=2)] == ["q"]
    assert calls == [3]
    assert bank.get("q").bar is None


def test_refresh_bar_of_a_short_corpus_yields_to_any_chunk():
    # keyed over one chunk with k_refresh 2, the bar is (-inf, ""): the
    # worst new chunk still enters the top 2
    r, emb = _table(["a", "new"], {"q": {"a": 0.9, "new": 0.0}})
    assert r.bar(emb["q"], 2, 1) == (-math.inf, "")
    bank = _bank()
    bank.insert("q", emb["q"], "ans", 1, r.bar(emb["q"], 2, 1))
    assert [e.query for e in bank.refresh(r, since=1, k_refresh=2)] == ["q"]


def test_keys_kept_only_for_answered_inserts():
    bank = _bank()
    _insert(bank, "q", answer=None, bar=(0.5, "a"))
    assert bank.get("q").bar is None
    _insert(bank, "q", bar=(0.5, "a"))
    assert bank.get("q").bar == (0.5, "a")
    _insert(bank, "q", answer=None, bar=(0.1, "b"))  # refused: keeps the answer
    assert bank.get("q").bar == (0.5, "a")


def test_pending_order():
    # oldest first, whatever the query text or the last use
    bank = _bank()
    _insert(bank, "b early", answer=None, now=1)
    _insert(bank, "answered", now=2)
    _insert(bank, "a later", answer=None, now=3)
    _insert(bank, "b early", answer=None, now=4)
    bank.mark_stale("answered")
    assert [e.query for e in bank.pending()] == ["b early", "answered", "a later"]


def test_persistence_round_trip(tmp_path):
    bank = _bank()
    _insert(bank, "decoded q", answer="the answer", now=1)
    _insert(bank, "pending q", answer=None, now=2)
    bank.mark_stale("decoded q")
    bank.match(EMB.embed("pending q"), -2.0, now=3)  # no-op, keeps counts 0
    path = tmp_path / "qa.jsonl"
    bank.persist(path)

    lines = path.read_text(encoding="utf-8").splitlines()
    import json

    recs = {json.loads(l)["query"]: json.loads(l) for l in lines}
    assert recs["decoded q"]["answer"] is not None and recs["decoded q"]["stale"] is True
    assert recs["pending q"]["answer"] is None

    loaded = QaBank.load(path, bank.limit_bytes)
    assert len(loaded.entries) == 2
    got = loaded.get("decoded q")
    assert got.answer == "the answer" and got.stale and (got.last_used, got.use_count) == (1, 0)
    assert [e.query for e in loaded.entries] == ["decoded q", "pending q"]
    assert all("created_at" not in json.loads(line) for line in lines)
    # embeddings recomputed, matching still works once answered again
    loaded.insert("decoded q", EMB.embed("decoded q"), "the answer", now=9)
    hit, sim = loaded.match(EMB.embed("decoded q"), 0.99, now=9)
    assert hit is got and sim == pytest.approx(1.0)
    # load then persist without any use: byte identical
    path2 = tmp_path / "qa2.jsonl"
    QaBank.load(path, bank.limit_bytes).persist(path2)
    assert path2.read_bytes() == path.read_bytes()


def test_load_enforces_limit(tmp_path):
    bank = _bank(entries=4)
    for i in range(4):
        _insert(bank, f"q{i}", now=i)
    path = tmp_path / "qa.jsonl"
    bank.persist(path)
    loaded = QaBank.load(path, limit_bytes=2 * DEFAULT_ENTRY_BYTES)
    assert len(loaded.entries) == 2 and loaded.used_bytes <= loaded.limit_bytes
