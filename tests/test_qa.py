import numpy as np
import pytest

from percache.qa import DEFAULT_ENTRY_BYTES, QaBank, QaCapacityError
from percache.retrieval import Retriever
from percache.textcore import Embedding, HashEmbedder

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
    bank = _bank()
    a = Embedding(np.eye(4)[0])
    bank.insert("newer", a, "x", 5)
    bank.insert("older", a, "y", 5)
    bank.get("older").created_at = 1
    entry, _ = bank.match(a, 0.5, now=9)
    assert entry.query == "older"


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


def test_capacity_error():
    bank = QaBank(limit_bytes=100)
    with pytest.raises(QaCapacityError):
        _insert(bank, "q")


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


def _table(rows, cosines):
    """A retriever over a fixed cosine table, and the query embeddings it is
    keyed for: rows are the chunk ids in insertion order, and
    cosines[query][chunk_id] the cosine of the query's embedding. Query i
    embeds as axis i and a chunk's row holds its cosines on the queries'
    axes, so every dot is exact."""
    axes = {q: np.eye(EMB.dim)[i] for i, q in enumerate(cosines)}
    r = Retriever(EMB)
    for cid in rows:
        r.add_chunk(cid, "", Embedding(sum(c[cid] * axes[q] for q, c in cosines.items())))
    return r, {q: Embedding(axis) for q, axis in axes.items()}


def test_refresh_marks_stale():
    r, emb = _table(["old1", "old2", "old3", "new1"], {
        "about budget": {"new1": 0.9, "old2": 0.8, "old3": 0.7, "old1": 0.1},
        "about meeting": {"old1": 0.9, "old2": 0.8, "old3": 0.7, "new1": 0.1},
        "no answer yet": {"new1": 0.9, "old1": 0.1, "old2": 0.1, "old3": 0.1},
    })
    bank = _bank()
    bank.insert("about budget", emb["about budget"], "ans", 1)
    bank.insert("about meeting", emb["about meeting"], "ans", 2)
    bank.insert("no answer yet", emb["no answer yet"], None, 3)
    marked = bank.refresh(r, since=3, k_refresh=3)
    assert [e.query for e in marked] == ["about budget"]
    assert bank.get("about budget").stale
    assert not bank.get("about meeting").stale
    assert not bank.get("no answer yet").stale  # answer-less entries skipped
    assert bank.get("about meeting").keys == [(0.9, "old1"), (0.8, "old2"), (0.7, "old3")]
    assert bank.get("no answer yet").keys is None


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


def test_refresh_merges_kept_keys_with_the_new_chunks_only():
    # the kept keys stand for the old chunks: only rows from since on are
    # gathered, once, and no full scan runs
    r, emb = _table(["a", "b", "c", "new"], {"q": {"a": 0.9, "b": 0.8, "c": 0.7, "new": 0.85}})
    calls = []
    rows_since, cosine_keys = r.rows_since, r.cosine_keys
    r.rows_since = lambda since: calls.append(since) or rows_since(since)
    r.cosine_keys = lambda *args: calls.append("full scan") or cosine_keys(*args)

    bank = _bank()
    bank.insert("q", emb["q"], "ans", 1, keys=[(0.9, "a"), (0.8, "b")])
    assert [e.query for e in bank.refresh(r, since=3, k_refresh=2)] == ["q"]
    assert calls == [3]
    assert bank.get("q").keys == [(0.9, "a"), (0.85, "new")]


def test_refresh_ranks_entries_with_too_few_keys_by_full_scan():
    # k_refresh grew from 1 to 2: one kept key cannot tell the second place
    r, emb = _table(["a", "b", "new"], {"q": {"a": 0.9, "b": 0.8, "new": 0.7}})
    bank = _bank()
    bank.insert("q", emb["q"], "ans", 1, keys=[(0.9, "a")])
    assert bank.refresh(r, since=2, k_refresh=2) == []
    assert bank.get("q").keys == [(0.9, "a"), (0.8, "b")]


def test_keys_kept_only_for_answered_inserts():
    bank = _bank()
    _insert(bank, "q", answer=None, keys=[(0.5, "a")])
    assert bank.get("q").keys is None
    _insert(bank, "q", keys=[(0.5, "a")])
    assert bank.get("q").keys == [(0.5, "a")]
    _insert(bank, "q", answer=None, keys=[(0.1, "b")])  # refused: keeps the answer
    assert bank.get("q").keys == [(0.5, "a")]


def test_pending_order():
    bank = _bank()
    _insert(bank, "b later", answer=None, now=5)
    _insert(bank, "a early", answer=None, now=1)
    _insert(bank, "answered", now=2)
    bank.mark_stale("answered")
    assert [e.query for e in bank.pending()] == ["a early", "answered", "b later"]


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
    assert got.answer == "the answer" and got.stale and got.created_at == 1
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
