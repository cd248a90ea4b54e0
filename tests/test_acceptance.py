"""Acceptance suite: nine end-to-end properties with hard runtime bounds.

Each test prints an "ACCEPTANCE n: PASS" line so a run log shows at a
glance which criteria were exercised.
"""

import hashlib
import json
import time
from itertools import accumulate

import numpy as np

from percache.backend import (
    CostModel,
    QkvPrefix,
    ToyModel,
    ToyModelConfig,
)
from percache.config import EngineConfig
from percache.engine import QA_HIT, Engine
from percache.knowledge import KnowledgeBank, Segment
from percache.qa import DEFAULT_ENTRY_BYTES, QaBank
from percache.retrieval import Retriever
from percache.textcore import TokenizerVocab, HashEmbedder, tokenize

from conftest import DATA, fake_bank, insert_path, load_bank, load_trace, path_tokens

CORPUS = (DATA / "corpus.txt").read_text(encoding="utf-8")


def _elapsed_ok(t0: float, bound: float, label) -> None:
    took = time.monotonic() - t0
    assert took < bound, f"criterion {label} exceeded its {bound}s budget ({took:.1f}s)"
    print(f"ACCEPTANCE {label}: PASS ({took:.1f}s)")


# -- 1. cached-prefill equivalence ---------------------------------------------

BOUNDARY_VOCAB = TokenizerVocab(
    [
        "the meeting", "the budget", "at noon", "on monday", "review the",
        "meeting", "budget", "review", "report", "plan", "team", "noon",
        "the ", " the", "what ", "when ", "is ", "on", "at", "a", "e", "i",
        "o", "u", "s", "t", "n", "r", "d", "g", "m", "p", "w", "?", " ",
    ]
)
WORDS = ["the", "meeting", "budget", "review", "report", "plan", "team",
         "noon", "monday", "agenda", "notes", "week"]


def _random_text(rng, n_words):
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


def _check_prompt(model, vocab, text, chunk_joins):
    """Prefill the prompt fully, then re-prefill from a cached prefix at
    every chunk-boundary split; everything must agree bit for bit.
    Returns the number of boundary-dependent splits encountered."""
    toks = tokenize(text, vocab)
    ends = list(accumulate(len(vocab.token_bytes(t)) for t in toks))
    full = model.prefill(toks)
    full_decode = model.decode_ids(full, 4)
    boundary_cases = 0
    for join_byte in chunk_joins:
        # the split token index: tokens fully inside the prefix bytes
        split = sum(1 for end in ends if end <= join_byte)
        if split == 0:
            continue
        prefix_text = text[:join_byte]
        if tokenize(prefix_text, vocab) != toks[:split]:
            boundary_cases += 1  # a token straddles this chunk boundary
        # the prefix's rows computed in a prompt of its own length, as a
        # cached slice was, equal those computed inside the longer prompt
        alone = model.prefill(toks[:split])
        assert np.array_equal(alone.tensors.data, full.tensors.data[:, :, :split])
        prefix = QkvPrefix(full.tensors.slice_tokens(0, split), split)
        state = model.prefill(toks, prefix)
        assert np.array_equal(state.tensors.data, full.tensors.data)
        assert np.array_equal(state.last_hidden, full.last_hidden)
        assert model.decode_ids(state, 4) == full_decode
    return boundary_cases


def test_acceptance_1_cached_prefill_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(0xACC1)
    prompts = 0
    boundary_cases = 0
    small_model = ToyModel(
        ToyModelConfig(2, 2, 8, vocab_size=BOUNDARY_VOCAB.size + 1, seed=7)
    )
    big_models = [
        ToyModel(ToyModelConfig(l, h, d, vocab_size=BOUNDARY_VOCAB.size + 1, seed=7))
        for l, h, d in [(3, 4, 12), (4, 4, 16)]
    ]
    for i in range(190):
        chunks = [_random_text(rng, int(rng.integers(3, 8))) for _ in range(int(rng.integers(2, 5)))]
        text = " ".join(chunks)
        joins = []
        pos = 0
        for c in chunks[:-1]:
            pos += len(c) + 1  # the joining space belongs to the next chunk
            joins.append(pos)
        boundary_cases += _check_prompt(small_model, BOUNDARY_VOCAB, text, joins)
        prompts += 1
    # prompts past numpy's 128-element pairwise-sum blocks, up to ~300 tokens
    long_prompts = 0
    for i in range(16):
        chunks = [_random_text(rng, int(rng.integers(10, 22))) for _ in range(int(rng.integers(3, 5)))]
        text = " ".join(chunks)
        joins = [sum(len(c) + 1 for c in chunks[: j + 1]) for j in range(len(chunks) - 1)]
        boundary_cases += _check_prompt(small_model, BOUNDARY_VOCAB, text, joins)
        prompts += 1
        long_prompts += len(tokenize(text, BOUNDARY_VOCAB)) > 128
    assert long_prompts >= 8, long_prompts
    for i in range(12):
        model = big_models[i % 2]
        chunks = [_random_text(rng, int(rng.integers(3, 7))) for _ in range(3)]
        text = " ".join(chunks)
        joins = [len(chunks[0]) + 1, len(chunks[0]) + len(chunks[1]) + 2]
        boundary_cases += _check_prompt(model, BOUNDARY_VOCAB, text, joins)
        prompts += 1

    # reuse through the tree: a prompt matched against a chunk cached for
    # another query reuses exactly the longest common token prefix, also
    # where " the" straddles the seam into a query that starts with "the"
    import tempfile

    def layout(query):
        return [Segment("notes:\n"),
                Segment("the budget review meeting on monday at noon ", "c1"),
                Segment(query)]

    queries = ("what is the budget plan?", "when is the meeting at noon?",
               "the budget plan?", "at noon?")
    tree_checked = cut_cases = 0
    for cached_query in queries:
        with tempfile.TemporaryDirectory() as td:
            bank = fake_bank(td, limit_bytes=1 << 26, vocab=BOUNDARY_VOCAB)
            segments = layout(cached_query)
            toks = tokenize("".join(s.text for s in segments), BOUNDARY_VOCAB)
            bank.slice_and_insert(segments, toks, small_model.prefill(toks).tensors, now=1)
            chain_ids = bank.root.token_ids + bank.nodes[1].token_ids
            for query in queries:
                toks = tokenize("".join(s.text for s in layout(query)), BOUNDARY_VOCAB)
                lcp = next((i for i, (a, b) in enumerate(zip(chain_ids, toks)) if a != b),
                           len(chain_ids))
                prefix, matched, discarded = bank.match_prefix(["c1"], toks, now=2)
                assert prefix.prefix_token_count == lcp and discarded == len(chain_ids) - lcp
                assert matched == 1
                state = small_model.prefill(toks)
                cached_state = small_model.prefill(toks, prefix)
                assert np.array_equal(cached_state.tensors.data, state.tensors.data)
                assert np.array_equal(cached_state.last_hidden, state.last_hidden)
                prompts += 1
                tree_checked += 1
                cut_cases += discarded > 0
    assert tree_checked == 16 and cut_cases > 0
    assert prompts >= 200, prompts
    assert boundary_cases > 0, "no chunk boundary ever crossed a token"
    _elapsed_ok(t0, 60.0, 1)


# -- 2. answer invariance --------------------------------------------------------

TRACE_CONFIGS = {
    "threshold_raise.trace": "scenario.cfg",
    "threshold_drop.trace": "scenario.cfg",
    "limit_relax.trace": "scenario_c.cfg",
    "monotonicity.trace": "default.cfg",
}


def test_acceptance_2_answer_invariance(tmp_path):
    t0 = time.monotonic()
    for trace_name, cfg_name in TRACE_CONFIGS.items():
        events = load_trace(trace_name)
        cached = Engine(
            EngineConfig.from_file(DATA / "configs" / cfg_name),
            tmp_path / f"cached_{trace_name}",
        )
        for event in events:
            cached.apply_event(event)
        free = Engine(
            EngineConfig.from_file(DATA / "configs" / "cachefree.cfg"),
            tmp_path / f"free_{trace_name}",
        )
        for event in events:
            free.apply_event(event)
        pairs = list(zip(cached.metrics, free.metrics))
        assert len(pairs) == len(events)
        checked = 0
        for rec_c, rec_f in pairs:
            if rec_c["kind"] != "query_arrival" or rec_c["path"] == QA_HIT:
                continue
            assert rec_c["answer"] == rec_f["answer"], (trace_name, rec_c["at"])
            checked += 1
        assert checked > 0, trace_name
    _elapsed_ok(t0, 60.0, 2)


# -- 3. tree laws -----------------------------------------------------------------


def _common_prefix(a, b):
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def test_acceptance_3_tree_laws(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(0xACC3)
    alphabet = ["a1", "b2", "c3", "d4", "e5"]
    cases = 0
    for trial in range(24):
        bank = fake_bank(tmp_path / f"t{trial}")
        inserted: list[list[str]] = []
        for step in range(44):
            path = [alphabet[i] for i in rng.integers(0, len(alphabet), int(rng.integers(1, 5)))]
            if rng.random() < 0.5:
                # insert, then confirm idempotence and the duplication law
                before_nodes = len(bank.nodes)
                insert_path(bank, path, now=step, query=f"q{step}")
                if path in inserted:
                    assert len(bank.nodes) == before_nodes  # no new nodes
                else:
                    inserted.append(list(path))
                insert_path(bank, path, now=step, query=f"q{step}")  # reinsert
                for node in bank.nodes.values():
                    if node is bank.root:
                        continue
                    assert len({c.chunk_id for c in node.children}) <= 1
            else:
                # match: longest-prefix law against the brute-force oracle
                _, matched, _ = bank.match_prefix(path, path_tokens(bank, path, f"q{step}"), now=step)
                oracle = max((_common_prefix(path, p) for p in inserted), default=0)
                assert matched == oracle, (path, inserted)
            cases += 1
    assert cases >= 1000, cases
    _elapsed_ok(t0, 30.0, 3)


# -- 4. ledger safety + LFU minimality -----------------------------------------------


def _victim_key(n):
    return (n.retrieval_count, n.last_used, n.chunk_id, n.node_id)


def test_acceptance_4_ledger_safety_lfu(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(0xACC4)
    alphabet = ["a1", "b2", "c3", "d4", "e5", "f6"]

    # knowledge bank side
    bank = fake_bank(tmp_path / "kb", limit_bytes=6000)
    orig_evict = KnowledgeBank._evict_node

    def checked_evict(node):
        candidates = [n for n in bank.nodes.values() if n.present]
        assert _victim_key(node) == min(_victim_key(n) for n in candidates)
        orig_evict(bank, node)

    bank._evict_node = checked_evict
    orig_fit = KnowledgeBank.evict_to_fit
    stops = 0

    def checked_fit(incoming_bytes):
        # eviction stops once the incoming bytes fit: with the last
        # victim's bytes back, they would not
        nonlocal stops
        evicted = orig_fit(bank, incoming_bytes)
        if evicted:
            assert not bank.fits(incoming_bytes + bank.nodes[evicted[-1]].byte_size)
            stops += 1
        return evicted

    bank.evict_to_fit = checked_fit
    cases = 0
    from percache.knowledge import StorageError

    for step in range(600):
        op = rng.random()
        path = [alphabet[i] for i in rng.integers(0, len(alphabet), int(rng.integers(1, 4)))]
        if op < 0.55:
            try:
                insert_path(bank, path, now=step, query=f"q{step}")
            except StorageError:
                pass
        elif op < 0.85:
            bank.match_prefix(path, path_tokens(bank, path, f"q{step}"), now=step)
        else:
            bank.set_limit(int(rng.integers(3000, 9000)))
        assert bank.used_bytes <= bank.limit_bytes
        shadow = sum(n.byte_size for n in bank.nodes.values() if n.present)
        assert shadow == bank.used_bytes
        cases += 1
    assert stops >= 20

    # qa bank side
    emb = HashEmbedder()
    qa = QaBank(limit_bytes=6 * 4096)
    orig_remove = QaBank._remove

    def checked_remove(entry):
        key = lambda e: (e.use_count, e.last_used, e.query)
        assert key(entry) == min(key(e) for e in qa.entries)
        orig_remove(qa, entry)

    qa._remove = checked_remove
    pool = [f"query number {i} about {w}?" for i, w in enumerate(
        ["budget", "meeting", "report", "plan", "noon", "team", "agenda", "notes"])]
    for step in range(600):
        op = rng.random()
        q = pool[int(rng.integers(0, len(pool)))]
        if op < 0.5:
            qa.insert(f"{q} v{int(rng.integers(0, 20))}", emb.embed(q), "ans", step)
        elif op < 0.85:
            qa.match(emb.embed(q), 0.8, step)
        else:
            qa.set_limit(int(rng.integers(3, 9)) * 4096)
        assert qa.used_bytes <= qa.limit_bytes
        assert qa.used_bytes == len(qa.entries) * DEFAULT_ENTRY_BYTES
        cases += 1
    assert cases >= 1000
    _elapsed_ok(t0, 30.0, 4)


# -- 5. scheduler scenarios -----------------------------------------------------------


def _run(trace_name, cfg_name, bank_dir):
    engine = Engine(EngineConfig.from_file(DATA / "configs" / cfg_name), bank_dir)
    for event in load_trace(trace_name):
        engine.apply_event(event)
    return engine


def _total_flops(engine) -> float:
    """The FLOPs of every query and idle tick in the engine's records."""
    return sum(r.get("prefill_flops", 0) + r.get("decode_flops", 0) + r.get("flops_spent", 0)
               for r in engine.metrics)


def test_acceptance_5a_threshold_raise_prefill_only(tmp_path):
    t0 = time.monotonic()
    sched = _run("threshold_raise.trace", "scenario.cfg", tmp_path / "s")
    nosched = _run("threshold_raise.trace", "scenario_nosched.cfg", tmp_path / "n")
    assert _total_flops(sched) < _total_flops(nosched)
    skipped_decode = sum(
        r["predicted_decode_flops"] for r in nosched.metrics if r["kind"] == "idle_tick"
    )
    assert skipped_decode > 0
    diff = _total_flops(nosched) - _total_flops(sched)
    assert abs(diff - skipped_decode) <= 1e-6 * skipped_decode
    _elapsed_ok(t0, 30.0, "5a")


def test_acceptance_5b_threshold_drop_bank_equality(tmp_path):
    t0 = time.monotonic()
    sched = _run("threshold_drop.trace", "scenario.cfg", tmp_path / "s")
    nosched = _run("threshold_drop.trace", "scenario_nosched.cfg", tmp_path / "n")
    snap = lambda eng: sorted((e.query, e.answer, e.stale) for e in eng.qa.entries)
    assert snap(sched) == snap(nosched)
    assert all(answer is not None for _, answer, _ in snap(sched))
    assert len(sched.qa.entries) > 0
    _elapsed_ok(t0, 30.0, "5b")


def test_acceptance_5c_limit_relax_restores_prefixes(tmp_path):
    t0 = time.monotonic()
    sched = _run("limit_relax.trace", "scenario_c.cfg", tmp_path / "s")
    nosched = _run("limit_relax.trace", "scenario_c_nosched.cfg", tmp_path / "n")
    relax_at = next(
        r["at"] for r in sched.metrics
        if r["kind"] == "config_change" and r["field"] == "qkv_limit_bytes" and r["value"] > 100000
    )
    improved = []
    for rec_s, rec_n in zip(sched.metrics, nosched.metrics):
        if rec_s["kind"] != "query_arrival" or rec_s["at"] <= relax_at:
            continue
        if rec_s["path"] == QA_HIT:
            continue
        if rec_s["matched_count"] > rec_n["matched_count"]:
            improved.append((rec_s["at"], rec_s["matched_count"], rec_n["matched_count"]))
    assert improved, "no post-relaxation query gained matched chunks"
    _elapsed_ok(t0, 30.0, "5c")


# -- 6. threshold monotonicity ----------------------------------------------------------


def test_acceptance_6_threshold_monotonicity(tmp_path):
    t0 = time.monotonic()
    events = load_trace("monotonicity.trace")
    taus = [0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]
    hits = []
    for tau in taus:
        cfg = EngineConfig.from_file(DATA / "configs" / "default.cfg")
        cfg.tau_query = tau
        engine = Engine(cfg, tmp_path / f"tau{int(tau * 100)}")
        for event in events:
            engine.apply_event(event)
        hits.append(sum(r.get("path") == QA_HIT for r in engine.metrics))
    assert all(a >= b for a, b in zip(hits, hits[1:])), hits
    assert hits[0] > hits[-1], hits  # the sweep actually separates thresholds
    _elapsed_ok(t0, 60.0, 6)


# -- 7. cost-model fidelity ---------------------------------------------------------------


def test_acceptance_7_cost_model_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(0xACC7)
    cfg = ToyModelConfig(layers=2, heads=2, head_dim=8, vocab_size=64, seed=3)
    model = ToyModel(cfg)
    cm = CostModel(cfg, EngineConfig())
    for _ in range(100):
        l_total = int(rng.integers(2, 64))
        l_pre = int(rng.integers(0, l_total))
        toks = rng.integers(0, cfg.vocab_size, size=l_total).tolist()
        full = model.prefill(toks).tensors
        prefix = QkvPrefix(full.slice_tokens(0, l_pre), l_pre) if l_pre else None
        model.mac_count = 0
        model.prefill(toks, prefix)
        instrumented = model.mac_count
        estimated = cm.estimate_cost(l_total=l_total, l_pre=l_pre).prefill_flops
        assert abs(estimated - instrumented) <= 0.01 * instrumented
    _elapsed_ok(t0, 30.0, 7)


# -- 8. refresh correctness ----------------------------------------------------------------


def test_acceptance_8_refresh_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(0xACC8)
    emb = HashEmbedder()
    words = ["budget", "meeting", "report", "plan", "noon", "team", "agenda",
             "training", "vendor", "invoice", "review", "notes"]
    for trial in range(100):
        n_chunks = int(rng.integers(3, 8))
        chunks = {}
        for i in range(n_chunks):
            text = " ".join(rng.choice(words) for _ in range(int(rng.integers(4, 9))))
            chunks[f"c{trial}_{i}"] = text
        embeddings = {cid: emb.embed(t) for cid, t in chunks.items()}
        new_ids = {cid for cid in chunks if rng.random() < 0.4}
        k_refresh = int(rng.integers(1, 4))

        qa = QaBank(limit_bytes=1 << 22)
        queries = [
            " ".join(rng.choice(words) for _ in range(int(rng.integers(3, 7)))) + "?"
            for _ in range(int(rng.integers(1, 6)))
        ]
        # the old chunks, then the queries (every other one keyed against
        # them, the rest keyed at refresh), then the new chunks arrive
        retriever = Retriever(emb)
        for cid in chunks:
            if cid not in new_ids:
                retriever.add_chunk(cid, chunks[cid], embeddings[cid])
        since = len(retriever)
        for j, q in enumerate(queries):
            bar = retriever.bar(emb.embed(q), k_refresh) if j % 2 else None
            qa.insert(q, emb.embed(q), "ans" if rng.random() < 0.8 else None, j, bar)
        for cid in chunks:
            if cid in new_ids:
                retriever.add_chunk(cid, chunks[cid], embeddings[cid])

        # independent oracle: raw numpy ranking, no shared helper
        def oracle_stale(query):
            qe = emb.embed(query).values
            sims = {cid: float(np.dot(qe, e.values)) for cid, e in embeddings.items()}
            order = sorted(sims, key=lambda cid: (-sims[cid], cid))
            return any(cid in new_ids for cid in order[:k_refresh])

        expected = sorted(
            e.query for e in qa.entries if e.answer is not None and oracle_stale(e.query)
        )
        marked = qa.refresh(retriever, since, k_refresh)
        assert sorted(e.query for e in marked) == expected
        for e in qa.entries:
            assert e.stale == (e.query in expected) or e.answer is None
    _elapsed_ok(t0, 30.0, 8)


# -- 9. persistence round-trip ----------------------------------------------------------------


def _tree_digest(bank_dir):
    h = hashlib.sha256()
    manifest = (bank_dir / "manifest.jsonl").read_bytes()
    h.update(manifest)
    for rec in (bank_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines():
        slice_file = json.loads(rec)["slice_file"]
        if slice_file:
            h.update((bank_dir / "slices" / slice_file).read_bytes())
    h.update((bank_dir / "chunks.jsonl").read_bytes())
    return h.hexdigest()


def test_acceptance_9_persistence_round_trip(tmp_path):
    t0 = time.monotonic()
    bank_dir = tmp_path / "bank"
    engine = Engine(EngineConfig(chunk_words=12, max_decode_tokens=6, t_batch=1e9), bank_dir)
    engine.ingest_chunks([CORPUS], 0)
    engine.handle_query("what is the budget review plan?", 1)
    engine.handle_query("where is the project report stored?", 2)
    engine.persist()
    digest_1 = _tree_digest(bank_dir)

    reloaded = Engine(EngineConfig(chunk_words=12, max_decode_tokens=6, t_batch=1e9), bank_dir)
    reloaded.persist()
    assert _tree_digest(bank_dir) == digest_1

    # corrupt one slice: load degrades that node to evicted, nothing crashes
    manifest = [json.loads(l) for l in (bank_dir / "manifest.jsonl").read_text().splitlines()]
    victim = next(r for r in manifest if r["slice_file"] and r["parent"] is not None)
    (bank_dir / "slices" / victim["slice_file"]).write_bytes(b"corrupt")
    degraded = load_bank(bank_dir)
    assert not degraded.nodes[victim["id"]].present
    assert degraded.used_bytes == sum(
        n.byte_size for n in degraded.nodes.values() if n.present
    )
    _elapsed_ok(t0, 10.0, 9)
