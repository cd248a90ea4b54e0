import hashlib
import json
import shutil
from types import MethodType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from percache import qa, retrieval, textcore
from percache.config import ConfigError, EngineConfig
from percache.engine import COLD_MISS, QA_HIT, QKV_PARTIAL, Engine, TraceError
from percache.knowledge import serialize_slice, slice_size
from percache.predictor import PhaseError
from percache.qa import DEFAULT_ENTRY_BYTES
from percache.textcore import EMBED_DIM, HashEmbedder, tokenize

from conftest import (DATA, checked_prefill, count_ints, embedding_from_counts, load_trace,
                      make_engine, reference_tokenize)

CORPUS = (DATA / "corpus.txt").read_text(encoding="utf-8")


def test_cold_miss_then_qa_hit(tmp_path):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    first = eng.handle_query(q, 1)
    assert first.path == COLD_MISS and first.l_pre == 0 and first.answer
    second = eng.handle_query(q, 2)
    assert second.path == QA_HIT
    assert second.answer == first.answer
    # a QA hit performs no model inference
    assert second.cost.prefill_flops == 0.0 and second.cost.decode_flops == 0.0
    assert second.best_similarity == pytest.approx(1.0)


def test_qkv_partial_on_qa_miss(tmp_path):
    # tau_query = 1.0 and strict matching: even the identical query misses
    # the QA bank, so the second ask reuses the QKV prefix instead
    eng = make_engine(tmp_path, tau_query=1.0)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    first = eng.handle_query(q, 1)
    second = eng.handle_query(q, 2)
    assert first.path == COLD_MISS
    assert second.path == QKV_PARTIAL
    assert second.matched_count == eng.config.retrieval_k
    assert 0 < second.l_pre < second.l_total
    assert second.answer == first.answer
    assert second.cost.prefill_flops < first.cost.prefill_flops


def test_reuse_disabled_never_matches(tmp_path):
    eng = make_engine(tmp_path, tau_query=1.0, reuse_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    second = eng.handle_query(q, 2)
    assert second.path == COLD_MISS and second.l_pre == 0
    assert eng.bank.used_bytes == 0


def test_qa_disabled_never_hits(tmp_path):
    eng = make_engine(tmp_path, qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    second = eng.handle_query(q, 2)
    assert second.path != QA_HIT
    assert len(eng.qa.entries) == 0


def test_ingest_chunking_and_idempotence(tmp_path):
    eng = make_engine(tmp_path, chunk_words=100)
    text = " ".join(f"w{i}" for i in range(250))
    ids, stale = eng.ingest_chunks([text], 0)
    assert len(ids) == 3 and stale == []
    again, stale = eng.ingest_chunks([text], 1)
    assert again == ids and stale == []
    assert len(eng.retriever) == 3


def test_arrival_indexes_refreshes_and_notes_only_new_chunks(tmp_path, monkeypatch):
    # one arrival chunks into a known chunk, a new chunk twice and another
    # new chunk: the retriever alone decides which are new
    eng = make_engine(tmp_path, chunk_words=3)
    (known,), _ = eng.ingest_chunks(["alpha beta gamma"], 0)
    refreshes, noted = [], []
    refresh, note = eng.qa.refresh, eng.predictor.note_chunks
    monkeypatch.setattr(eng.qa, "refresh", lambda *a: refreshes.append(a[1]) or refresh(*a))
    monkeypatch.setattr(eng.predictor, "note_chunks",
                        lambda texts, at: noted.append(list(texts)) or note(texts, at))
    rows = len(eng.retriever)
    text = "alpha beta gamma delta eps zeta delta eps zeta eta theta iota"
    record = eng.apply_event({"at": 1, "kind": "chunk_arrival", "text": text})
    ids = record["chunk_ids"]
    assert len(ids) == 4 and ids[0] == known and ids[1] == ids[2] and len(set(ids)) == 3
    assert [eng.bank.chunks[c] for c in ids[1:]] == [
        "delta eps zeta", "delta eps zeta", "eta theta iota"]
    assert len(eng.retriever) == rows + 2
    assert eng.retriever.rows_since(rows)[0] == [ids[1], ids[3]]
    assert refreshes == [rows] and noted == [["delta eps zeta", "eta theta iota"]]
    # an arrival of known chunks alone refreshes nothing and notes nothing
    text = "eta theta iota alpha beta gamma"
    record = eng.apply_event({"at": 2, "kind": "chunk_arrival", "text": text})
    assert record["chunk_ids"] == [ids[3], known]
    assert len(eng.retriever) == rows + 2 and refreshes == [rows] and len(noted) == 1


def test_refresh_marks_matching_entry_stale(tmp_path):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    # a new chunk that dominates the entry's cosine ranking goes top-k
    new_text = "what is the budget review plan for the team this quarter exactly"
    ids, stale = eng.ingest_chunks([new_text], 2)
    assert stale == [q]
    # the stale entry is no longer served
    after = eng.handle_query(q, 3)
    assert after.path != QA_HIT


def test_answer_keys_entry_without_a_second_scan(tmp_path, monkeypatch):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    scans = []
    scan = retrieval.cosine_similarities
    monkeypatch.setattr(retrieval, "cosine_similarities", lambda *a: scans.append(1) or scan(*a))
    q = "what is the budget review plan?"
    assert eng.handle_query(q, 1).path == COLD_MISS
    assert len(scans) == 1  # retrieval's own
    entry = eng.qa.get(q)
    # another embedding object with the same counts is scanned afresh
    counts = eng.qa.embedding(entry).counts
    assert entry.bar == eng.retriever.bar(embedding_from_counts(counts), eng.config.k_refresh)
    assert len(scans) == 2


def _counted(monkeypatch, owners, name) -> list:
    """A list that grows by one at each call of the function name, wrapped
    in each of owners, where its callers look it up."""
    calls = []
    for owner in owners:
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn: calls.append(1) or fn(*a))
    return calls


def _embeds_and_scans(monkeypatch) -> tuple[list, list]:
    return (_counted(monkeypatch, [HashEmbedder], "embed"),
            _counted(monkeypatch, [textcore, qa, retrieval], "cosine_similarities"))


def test_exact_repeat_hit_neither_embeds_nor_scans(tmp_path, monkeypatch):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    first = eng.handle_query(q, 1)
    embeds, scans = _embeds_and_scans(monkeypatch)
    second = eng.handle_query(q, 2)
    assert (len(embeds), len(scans)) == (0, 0)
    assert second.path == QA_HIT and second.answer == first.answer
    assert float(second.best_similarity).hex() == (1.0).hex()
    entry = eng.qa.get(q)
    assert (entry.use_count, entry.last_used) == (1, eng._op)
    # still charged as an embedding and a match
    assert second.cost == eng.cost_model.estimate_cost(l_total=0, qa_match=True, embeds=1)


def test_paraphrase_hit_embeds_and_scans_once(tmp_path, monkeypatch):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    eng.handle_query("what is the budget review plan?", 1)
    embeds, scans = _embeds_and_scans(monkeypatch)
    hit = eng.handle_query("so what is the budget review plan?", 2)
    assert hit.path == QA_HIT and hit.best_similarity < 1.0
    assert (len(embeds), len(scans)) == (1, 1)


def test_exact_repeat_is_served_by_the_oldest_entry_of_its_direction(tmp_path, monkeypatch):
    # the two texts embed alike: the scan serves the older entry at 1.0, and
    # so does the repeat of the newer text
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    older, newer = "When is the budget review?", "when is the budget review"
    eng.handle_query(older, 1)
    eng.answer(newer)
    a, b = eng.qa.get(older), eng.qa.get(newer)
    assert a.servable and b.servable and a.row < b.row and a.direction == b.direction
    embeds, scans = _embeds_and_scans(monkeypatch)
    out = eng.handle_query(newer, 2)
    assert (len(embeds), len(scans)) == (0, 0)
    assert out.path == QA_HIT and out.answer == a.answer
    assert float(out.best_similarity).hex() == (1.0).hex()
    assert (a.use_count, b.use_count) == (1, 0)


def test_population_of_an_answerless_entry_takes_its_row(tmp_path, monkeypatch):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.populate_predicted(q, decode=False)
    assert eng.qa.get(q).answer is None
    embeds = _counted(monkeypatch, [HashEmbedder], "embed")
    eng.populate_predicted(q, decode=True)
    assert len(embeds) == 0 and eng.qa.get(q).servable


def test_arrival_after_reopen_marks_what_an_open_engine_marks(tmp_path):
    # a reopened bank's entries have no bar and are keyed at their first
    # refresh; the open engine's entries test their kept bars against the
    # new chunks
    queries = ("what is the budget review plan?", "when is the team meeting?",
               "where is the project report stored?", "who books the training session?")
    arrivals = ("the budget review plan needs numbers from finance this quarter",
                "the team meeting moves to the main room on monday morning",
                "the project report and the training session notes are in the shared drive")
    eng = make_engine(tmp_path / "bank")
    eng.ingest_chunks([CORPUS], 0)
    for i, q in enumerate(queries[:3]):
        eng.handle_query(q, i + 1)
    eng.ingest_chunks([arrivals[0]], 4)
    eng.handle_query(queries[3], 5)
    eng.persist()
    shutil.copytree(tmp_path / "bank", tmp_path / "copy")
    reopened = make_engine(tmp_path / "copy")
    marked = []
    for i, text in enumerate(arrivals[1:]):
        _, want = eng.ingest_chunks([text], 6 + i)
        _, got = reopened.ingest_chunks([text], 6 + i)
        assert got == want
        marked += want
    assert marked and set(marked) != set(queries)
    for e, r in zip(eng.qa.entries, reopened.qa.entries):
        assert (r.query, r.stale, r.bar) == (e.query, e.stale, e.bar)


# a chunk ending in "action" before one starting "items": the vocab token
# "action items" straddles their seam, so A's token ids depend on what
# follows it by more than a few tokens
CHUNK_A = "notes from the planning call about the next action"
CHUNK_B = "items were assigned to the team on friday"
CHUNK_C = "zebra quotas were discussed briefly"
CHUNK_F = "friday the budget review was moved to monday"


def _fixed_retrieval_engine(tmp_path, order: dict[str, list[str]], **overrides) -> Engine:
    """An engine with QA and the scheduler off whose retrieval returns, for
    each query, the chunks order[query] in that order; every reuse asserts
    that its prefill equals a prefill of the whole prompt."""
    eng = make_engine(tmp_path, chunk_words=100, qa_enabled=False,
                      scheduler_enabled=False, max_decode_tokens=8, **overrides)
    ids = {text: eng.ingest_chunks([text], 0)[0][0] for text in (CHUNK_A, CHUNK_B, CHUNK_C, CHUNK_F)}
    eng.retriever.retrieve_top_k = lambda query, k, embedding=None: [
        retrieval.RankedChunk(ids[text], 0.0, 0.0, 0.0) for text in order[query]]
    eng.model.prefill = MethodType(checked_prefill([]), eng.model)
    return eng


@pytest.mark.parametrize("seed", range(3))
def test_reuse_stops_before_a_token_that_straddles_a_chunk_seam(tmp_path, seed):
    # after [A, C] is cached, a prompt over [A, B] tokenizes A's end as
    # "action items": A's cached rows are reused only up to that token
    order = {"what was assigned?": [CHUNK_A, CHUNK_C], "who got the items?": [CHUNK_A, CHUNK_B],
             "when is the action due?": [CHUNK_A, CHUNK_B]}
    warm = _fixed_retrieval_engine(tmp_path / "warm", order, seed=seed)
    warm.handle_query("what was assigned?", 1)
    for i, query in enumerate(("who got the items?", "when is the action due?")):
        cold = _fixed_retrieval_engine(tmp_path / f"cold{i}", order, seed=seed)
        want = cold.handle_query(query, 1)
        got = warm.handle_query(query, 2 + i)
        assert got.path == QKV_PARTIAL and got.answer == want.answer
        if i == 0:  # A's rows up to its last few tokens, then none of C's
            assert got.matched_count == 1 and got.discarded > 0


def test_reuse_stops_inside_the_root_when_a_token_straddles_the_system_prompt(tmp_path):
    # "on friday" starts in the system prompt and ends in the first chunk,
    # so the root's ids depend on which chunk follows it
    order = {"when was the review?": [CHUNK_F, CHUNK_C], "what quotas?": [CHUNK_C, CHUNK_A]}
    prompt = "Answer from the notes taken on "
    for seed in range(3):
        warm = _fixed_retrieval_engine(tmp_path / f"warm{seed}", order, seed=seed, system_prompt=prompt)
        warm.handle_query("when was the review?", 1)
        got = warm.handle_query("what quotas?", 2)
        cold = _fixed_retrieval_engine(tmp_path / f"cold{seed}", order, seed=seed, system_prompt=prompt)
        want = cold.handle_query("what quotas?", 1)
        assert got.answer == want.answer
        assert got.matched_count == 0 and 0 < got.l_pre < len(warm.bank.root.token_ids)


@pytest.mark.parametrize("new_prompt,path", [
    ("Answer from personal notes, briefly:\n", COLD_MISS),
    ("Notes:\n", COLD_MISS),
])
def test_system_prompt_change_reuses_only_the_common_token_prefix(tmp_path, new_prompt, path):
    # a config_change of the prompt drops the tree, which then caches the
    # new prompt's rows. So does a bank reopened under another prompt: its
    # tree is stamped with the old one, so not even the common token prefix
    # of the two prompts is reused (path), and the next query reuses the
    # new prompt's rows
    eng = make_engine(tmp_path / "warm", qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    eng.persist()
    shutil.copytree(tmp_path / "warm", tmp_path / "reopened")
    dropped = sorted(eng.bank.nodes)
    record = eng.apply_event({"at": 2, "kind": "config_change", "field": "system_prompt",
                              "value": new_prompt.replace("\n", "\\n")})
    assert eng.config.system_prompt == new_prompt
    assert record["evicted_nodes"] == dropped and eng.bank.used_bytes == 0
    first, repeat = eng.handle_query(q, 3), eng.handle_query(q, 4)
    assert (first.path, repeat.path) == (COLD_MISS, QKV_PARTIAL)
    assert min(set(eng.bank.nodes) - {0}) > max(dropped)  # node ids keep counting
    cold = make_engine(tmp_path / "cold", qa_enabled=False, system_prompt=new_prompt)
    cold.ingest_chunks([CORPUS], 0)
    want = cold.handle_query(q, 1).answer
    assert first.answer == repeat.answer == want

    reopened = make_engine(tmp_path / "reopened", qa_enabled=False, system_prompt=new_prompt)
    assert list(reopened.bank.nodes) == [0] and reopened.bank.chunks == eng.bank.chunks
    got, again = reopened.handle_query(q, 1), reopened.handle_query(q, 2)
    assert (got.path, got.l_pre, again.path) == (path, 0, QKV_PARTIAL)
    assert got.answer == again.answer == want


def test_prompt_ids_equal_the_reference_as_the_system_prompt_changes(tmp_path):
    # the engine tokenizes its system prompt's lines once per prompt value;
    # every prompt it prefills must still get the ids of a whole-prompt
    # greedy match, whether the system prompt has no newline, several, or
    # text after its last one, and after each config_change of it. The
    # prompts hold words of the default vocabulary's multi-word tokens
    # ("on friday"), which straddle the system prompt where it ends
    # without a newline
    eng = make_engine(tmp_path, qa_enabled=False, reuse_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    prompts, prefilled = [], []
    assemble, prefill = eng._assemble, eng.model.prefill
    eng._assemble = lambda q, ids: prompts.append(assemble(q, ids)) or prompts[-1]
    eng.model.prefill = lambda tokens, prefix=None: (prefilled.append(tokens)
                                                     or prefill(tokens, prefix))
    at = iter(range(1, 10**6))

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.text(alphabet="Aon fridy:\né", max_size=24),
           st.text(alphabet="what is on friday? \né", min_size=1, max_size=20))
    @example("Answer from personal notes:\n", "what is the budget review plan?")
    @example("Notes taken on", "friday?")  # no newline: the whole prompt is tokenized
    @example("Notes:\n\non\n friday\nNotes on", "when?")  # several, text after the last
    @example("Answer from personal notes:\n", "what is the budget review plan?")  # changed back
    def check(system_prompt, query):
        eng.apply_event({"at": next(at), "kind": "config_change", "field": "system_prompt",
                         "value": system_prompt.replace("\n", "\\n")})
        assert eng.config.system_prompt == system_prompt
        prompts.clear()
        prefilled.clear()
        eng.answer(query, decode=False)
        text = "".join(segment.text for segment in prompts[0])
        assert text.startswith(system_prompt)
        assert prefilled == [reference_tokenize(text, eng.vocab)]

    check()


def test_unchanged_system_prompt_keeps_the_tree(tmp_path):
    eng = make_engine(tmp_path, qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    eng.handle_query("what is the budget review plan?", 1)
    nodes = dict(eng.bank.nodes)
    record = eng.apply_event({"at": 2, "kind": "config_change", "field": "system_prompt",
                              "value": eng.config.system_prompt.replace("\n", "\\n")})
    assert record["evicted_nodes"] == [] and eng.bank.nodes == nodes


@pytest.mark.parametrize("value", [None, ["a"], {"a": 1}, "<missing>"])
def test_config_change_without_a_scalar_value_changes_nothing(tmp_path, value):
    # str() would turn null into the prompt "None" and a list into "['a']",
    # and the prompt change would drop the tree
    eng = make_engine(tmp_path, qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    eng.handle_query("what is the budget review plan?", 1)
    prompt, nodes = eng.config.system_prompt, dict(eng.bank.nodes)
    event = {"at": 2, "kind": "config_change", "field": "system_prompt", "value": value}
    if value == "<missing>":
        del event["value"]
    with pytest.raises(TraceError, match="'value'"):
        eng.apply_event(event)
    assert eng.config.system_prompt == prompt and eng.bank.nodes == nodes


@pytest.mark.parametrize("shape", [{"model_heads": 4}, {"model_layers": 3},
                                   {"model_head_dim": 4}])
def test_bank_reopened_under_another_model_shape_drops_its_tree(tmp_path, shape):
    # slices of another (layers, heads, head_dim) cannot be reused; the
    # reopened engine must answer as a fresh one does, not raise
    eng = make_engine(tmp_path / "bank", qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    eng.persist()
    fresh = make_engine(tmp_path / "fresh", qa_enabled=False, **shape)
    fresh.ingest_chunks([CORPUS], 0)
    reopened = make_engine(tmp_path / "bank", qa_enabled=False, **shape)
    assert list(reopened.bank.nodes) == [0] and reopened.bank.used_bytes == 0
    for at in (2, 3):
        got, want = reopened.handle_query(q, at), fresh.handle_query(q, at)
        assert (got.path, got.l_pre, got.answer) == (want.path, want.l_pre, want.answer)
    assert got.path == QKV_PARTIAL  # the new shape's rows are cached again


def test_bank_reopened_under_another_seed_drops_its_tree(tmp_path):
    # the same shape, but rows that another seed's model computed: the
    # reopened engine answers as a fresh one does and keeps chunks and QA
    # entries
    eng = make_engine(tmp_path / "bank", seed=1)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    eng.persist()
    fresh = make_engine(tmp_path / "fresh", qa_enabled=False, seed=2)
    fresh.ingest_chunks([CORPUS], 0)
    reopened = make_engine(tmp_path / "bank", qa_enabled=False, seed=2)
    assert list(reopened.bank.nodes) == [0] and reopened.bank.used_bytes == 0
    assert reopened.bank.chunks == eng.bank.chunks and [e.query for e in reopened.qa.entries] == [q]
    for at in (2, 3):
        got, want = reopened.handle_query(q, at), fresh.handle_query(q, at)
        assert (got.path, got.l_pre, got.answer) == (want.path, want.l_pre, want.answer)
    assert got.path == QKV_PARTIAL
    fresh.persist()
    same_seed = make_engine(tmp_path / "fresh", qa_enabled=False, seed=2)
    assert same_seed.bank.nodes.keys() == fresh.bank.nodes.keys()  # a matching stamp keeps it


@pytest.mark.parametrize("bad_id", [10**6, -1])
def test_bank_with_kept_ids_outside_the_vocabulary_drops_its_tree(tmp_path, bad_id):
    # an absent node whose kept ids the vocabulary does not hold: restoring
    # it would prefill ids the model has no row for, so the tree goes at open
    eng = make_engine(tmp_path, qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    eng.handle_query("what is the budget review plan?", 1)
    eng.persist()
    manifest = tmp_path / "manifest.jsonl"
    records = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    deepest = records[-1]
    assert deepest["token_ids"]
    deepest.update(slice_file=None, token_ids=[bad_id] * len(deepest["token_ids"]))
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    reopened = make_engine(tmp_path, qa_enabled=False)
    assert list(reopened.bank.nodes) == [0] and reopened.bank.used_bytes == 0
    assert reopened.bank.chunks == eng.bank.chunks
    record = reopened.apply_event({"at": 2, "kind": "idle_tick", "budget": 1e15})
    assert record["qkv_used_bytes"] == 0


def _persist_with_deepest_evicted(tmp_path) -> tuple[Engine, int, bytes]:
    """An engine whose one query's deepest node was evicted before persist:
    (the engine, that node's id, its slice file bytes before the eviction)."""
    eng = make_engine(tmp_path, qa_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    eng.handle_query("what is the budget review plan?", 1)
    deepest = eng.bank.nodes[max(eng.bank.nodes)]
    data = serialize_slice(deepest.tensors)
    eng.bank._evict_node(deepest)
    eng.persist()
    return eng, deepest.node_id, data


def _edit_manifest(bank_dir, edit) -> None:
    manifest = bank_dir / "manifest.jsonl"
    records = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    for rec in records:
        edit(rec)
    manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                        encoding="utf-8")


def test_restoration_charges_the_rows_it_writes(tmp_path):
    # an absent node's byte_size comes from manifest.jsonl unchecked; the
    # refill charges the restored slice's own size, so a damaged one cannot
    # leave used_bytes under-counting
    _, node_id, _ = _persist_with_deepest_evicted(tmp_path)
    _edit_manifest(tmp_path, lambda r: r.update(byte_size=-1000) if r["id"] == node_id else None)
    reopened = make_engine(tmp_path, qa_enabled=False)
    assert reopened.apply_event({"at": 2, "kind": "idle_tick", "budget": 1e15})["restored_nodes"] == 1
    node = reopened.bank.nodes[node_id]
    assert node.present and node.byte_size == slice_size(node.tensors)
    assert reopened.bank.used_bytes == sum(
        slice_size(n.tensors) for n in reopened.bank.nodes.values() if n.present)


def test_restoration_sizes_the_slice_by_its_kept_ids(tmp_path):
    # the pre-check asks whether the slice the kept ids make fits, not the
    # byte_size manifest.jsonl gives, so a too-large one cannot keep the
    # node out of idle restoration
    _, node_id, evicted = _persist_with_deepest_evicted(tmp_path)
    _edit_manifest(tmp_path, lambda r: r.update(byte_size=10**12) if r["id"] == node_id else None)
    reopened = make_engine(tmp_path, qa_enabled=False)
    assert reopened.apply_event({"at": 2, "kind": "idle_tick", "budget": 1e15})["restored_nodes"] == 1
    node = reopened.bank.nodes[node_id]
    assert node.present and serialize_slice(node.tensors) == evicted


def test_bank_with_slice_digests_opens_and_persists_without_them(tmp_path):
    # an older bank format kept a payload_sha per node, the SHA-256 of its
    # slice file, taken at persist or first eviction. Kept ids decide every
    # refill now: the key is not read, present slices are reused, absent
    # ones are restored, and the next persist writes no digest
    eng, node_id, evicted = _persist_with_deepest_evicted(tmp_path)
    slices = tmp_path / "slices"

    def add_digest(rec):
        data = evicted if rec["id"] == node_id else (slices / rec["slice_file"]).read_bytes()
        rec["payload_sha"] = hashlib.sha256(data).hexdigest()

    _edit_manifest(tmp_path, add_digest)
    reopened = make_engine(tmp_path, qa_enabled=False)
    present = {n.node_id for n in eng.bank.nodes.values() if n.present}
    assert {n.node_id for n in reopened.bank.nodes.values() if n.present} == present
    assert node_id not in present
    assert reopened.restore_evicted_slices(1e15)[0] == [node_id]
    assert serialize_slice(reopened.bank.nodes[node_id].tensors) == evicted
    outcome = reopened.handle_query("what is the budget review plan?", 2)
    assert outcome.path == QKV_PARTIAL and outcome.matched_count == len(reopened.bank.nodes) - 1
    reopened.persist()
    lines = (tmp_path / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines and not any("payload_sha" in json.loads(line) for line in lines)


def test_trace_out_of_order_rejected(tmp_path):
    eng = make_engine(tmp_path)
    eng.apply_event({"at": 5, "kind": "chunk_arrival", "text": "alpha beta"})
    with pytest.raises(TraceError):
        eng.apply_event({"at": 4, "kind": "chunk_arrival", "text": "gamma"})


def test_trace_unknown_kind_and_missing_fields(tmp_path):
    eng = make_engine(tmp_path)
    with pytest.raises(TraceError):
        eng.apply_event({"at": 0, "kind": "nonsense"})
    with pytest.raises(TraceError):
        eng.apply_event({"kind": "idle_tick"})
    with pytest.raises(TraceError):
        eng.apply_event({"at": "zero", "kind": "idle_tick"})


@pytest.mark.parametrize("refused", [
    {"kind": "config_change", "field": "tau_query", "value": 7},
    {"kind": "idle_tick", "budget": "x"},
    {"kind": "nonsense"},
], ids=["invalid-config-value", "non-numeric-budget", "unknown-kind"])
def test_a_refused_event_leaves_the_trace_clock(tmp_path, refused):
    # the event at 5 is refused and records nothing, so an event at 3 is
    # still in order
    eng = make_engine(tmp_path)
    eng.apply_event({"at": 1, "kind": "chunk_arrival", "text": "alpha beta"})
    with pytest.raises((TraceError, ConfigError)):
        eng.apply_event({"at": 5, **refused})
    assert len(eng.metrics) == 1
    record = eng.apply_event({"at": 3, "kind": "chunk_arrival", "text": "gamma"})
    assert record["at"] == 3 and len(eng.metrics) == 2


def test_config_change_shrink_evicts_immediately(tmp_path):
    eng = make_engine(tmp_path)
    eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": CORPUS})
    eng.apply_event({"at": 1, "kind": "query_arrival", "text": "what is the budget review plan?"})
    assert eng.bank.used_bytes > 0
    record = eng.apply_event(
        {"at": 2, "kind": "config_change", "field": "qkv_limit_bytes", "value": 1024}
    )
    assert record["evicted_nodes"]
    assert eng.bank.used_bytes <= 1024


@pytest.mark.parametrize("field,value", [("latency_scale", 0.5), ("flops_per_ms", 2e6)])
def test_config_change_cost_params_take_effect(tmp_path, field, value):
    records = []
    for name, events in (("base", []), ("changed", [(field, value)])):
        eng = make_engine(tmp_path / name)
        eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": CORPUS})
        for f, v in events:
            eng.apply_event({"at": 1, "kind": "config_change", "field": f, "value": v})
        records.append(eng.apply_event(
            {"at": 2, "kind": "query_arrival", "text": "what is the budget review plan?"}
        ))
    base, changed = records
    assert getattr(eng.cost_model.params, field) == value
    flops_ms = (base["prefill_flops"] + base["decode_flops"]) / EngineConfig().flops_per_ms
    fixed_ms = base["total_ms"] - flops_ms
    expected = flops_ms + 0.5 * fixed_ms if field == "latency_scale" else flops_ms / 2 + fixed_ms
    assert changed["prefill_flops"] == base["prefill_flops"]
    assert changed["total_ms"] == pytest.approx(expected)


@pytest.mark.parametrize("qa_enabled", [True, False])
def test_served_miss_total_ms_is_the_two_estimate_sum(tmp_path, qa_enabled):
    # a served miss charges its QA match in its one estimate; the total
    # equals, bit for bit, the field-by-field sum of the answer's estimate
    # and the match's own that the engine once added. The goldens pin
    # latency_scale 1 only
    eng = make_engine(tmp_path, tau_query=1.0, latency_scale=0.3, qa_enabled=qa_enabled)
    eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": CORPUS})
    c, s = eng.config, 0.3
    for at, path in ((1, COLD_MISS), (2, QKV_PARTIAL)):
        r = eng.apply_event({"at": at, "kind": "query_arrival", "text": "what is the budget review plan?"})
        assert r["path"] == path
        # the match missed the entry of the first ask only at tau_query 1.0
        assert r["best_similarity"] == (pytest.approx(1.0) if qa_enabled and at == 2 else -1.0)
        slices = r["matched_count"] + 1 if r["l_pre"] else 0
        prefill_ms = r["prefill_flops"] / c.flops_per_ms + 0.0 / c.flops_per_ms
        decode_ms = r["decode_flops"] / c.flops_per_ms + 0.0 / c.flops_per_ms
        match_ms = s * (0.0 + c.qkv_match_ms) + s * ((c.question_match_ms if qa_enabled else 0.0) + 0.0)
        load_ms = s * c.qkv_load_ms * slices + s * c.qkv_load_ms * 0
        embed_ms = s * c.embed_ms * 1 + s * c.embed_ms * 0
        assert r["total_ms"] == prefill_ms + decode_ms + match_ms + load_ms + embed_ms


def test_config_change_tau_applies_immediately(tmp_path):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    eng.apply_event({"at": 2, "kind": "config_change", "field": "tau_query", "value": 1.0})
    assert eng.handle_query(q, 3).path != QA_HIT


def test_config_change_qa_limit_evicts_lfu_at_once(tmp_path):
    # shrinking a filled QA bank mid-trace evicts in its own record, least
    # used first, then least recently used, and leaves it within the limit
    eng = make_engine(tmp_path)
    eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": CORPUS})
    queries = ["what is the budget review plan?", "where is the project report stored?",
               "when is the training workshop at noon?", "who wrote the agenda for monday?"]
    for at, q in enumerate(queries, 1):
        assert eng.apply_event({"at": at, "kind": "query_arrival", "text": q})["path"] != QA_HIT
    assert eng.apply_event({"at": 5, "kind": "query_arrival", "text": queries[1]})["path"] == QA_HIT
    record = eng.apply_event({"at": 6, "kind": "config_change", "field": "qa_limit_bytes",
                              "value": 2 * DEFAULT_ENTRY_BYTES})
    assert record["evicted_entries"] == [queries[0], queries[2]]
    assert record["qa_entries"] == 2
    assert record["qa_used_bytes"] <= eng.config.qa_limit_bytes == 2 * DEFAULT_ENTRY_BYTES


def test_metrics_tail_fields(tmp_path):
    # every record ends with the cache sizes; no running total, which a
    # reopened engine would restart from zero
    eng = make_engine(tmp_path)
    record = eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": "alpha beta"})
    assert set(record) == {"at", "kind", "chunk_ids", "stale_marked",
                           "qa_entries", "qa_used_bytes", "qkv_used_bytes"}


def test_trace_replay_deterministic(tmp_path):
    events = load_trace("threshold_drop.trace")
    outputs = []
    for run in ("a", "b"):
        eng = Engine(
            EngineConfig.from_file(DATA / "configs" / "scenario.cfg"), tmp_path / run
        )
        for event in events:
            eng.apply_event(event)
        out = tmp_path / f"{run}.jsonl"
        eng.write_metrics(out)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_phase_flag_set_during_serving(tmp_path):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    seen = []
    real_embed = eng.embedder.embed

    class Spy:
        def embed(self, text):
            seen.append(eng.predictor.phase)
            return real_embed(text)

    eng.embedder = Spy()
    eng.handle_query("what is the budget review plan?", 1)
    assert seen and seen[0] == "serve"
    assert eng.predictor.phase == "idle"
    # while serving, prediction work is rejected
    eng.predictor.phase = "serve"
    with pytest.raises(PhaseError):
        eng.predictor.predict_from_history(100, lambda q: False)
    eng.predictor.phase = "idle"


def test_recorded_flops_equal_instrumented_macs(tmp_path):
    # the cost model's formulas must charge exactly the multiply-adds the
    # model performs on every query path (the scripted backend runs no model)
    eng = Engine(EngineConfig.from_file(DATA / "configs" / "default.cfg"), tmp_path)
    paths = set()
    for event in load_trace("monotonicity.trace"):
        macs0 = eng.model.mac_count
        record = eng.apply_event(event)
        if record["kind"] == "query_arrival":
            paths.add(record["path"])
            measured = eng.model.mac_count - macs0
            assert record["prefill_flops"] + record["decode_flops"] == measured
    assert paths == {QA_HIT, QKV_PARTIAL, COLD_MISS}


def test_persist_and_reload_serves_hits(tmp_path):
    eng = make_engine(tmp_path / "bank")
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    answer = eng.handle_query(q, 1).answer
    eng.persist()
    reloaded = make_engine(tmp_path / "bank")
    outcome = reloaded.handle_query(q, 2)
    assert outcome.path == QA_HIT and outcome.answer == answer


def test_open_embeds_every_chunk_and_query_as_embed_does(tmp_path):
    # each row of the retriever's matrix, and each reloaded QA entry, keeps
    # the bits of embedding its text alone; texts without words included
    words = " ".join(f"w{i} budget {i % 7}" for i in range(50))
    eng = make_engine(tmp_path / "bank", chunk_words=3)
    eng.ingest_chunks(["?! " * 30 + words + " -- !!"], 0)
    queries = ["what is the budget review plan?", "?!", "Kelvin \u212aelvin caf\u00e9 12"]
    for i, q in enumerate(queries):
        eng.handle_query(q, i + 1)
    eng.persist()
    reopened = make_engine(tmp_path / "bank", chunk_words=3)
    chunks = list(reopened.bank.chunks.items())
    assert len(chunks) > 50
    rows, norm2 = reopened.retriever.rows.counts, reopened.retriever.rows.norm2.tolist()
    assert reopened.retriever._ids == [chunk_id for chunk_id, _ in chunks]
    assert len(rows) == len(norm2) == len(chunks) and rows.dtype == np.int8
    for (_, text), row, n2 in zip(chunks, rows, norm2):
        e = reopened.embedder.embed(text)
        assert (count_ints(row), n2) == (count_ints(e.counts), e.norm2)
    assert [e.query for e in reopened.qa.entries] == queries
    for entry in reopened.qa.entries:
        e, kept = reopened.embedder.embed(entry.query), reopened.qa.embedding(entry)
        assert (kept.counts.dtype, kept.counts.tobytes(), kept.norm2) == (
            e.counts.dtype, e.counts.tobytes(), e.norm2)
        assert kept.values.tobytes() == e.values.tobytes()


def test_count_rows_of_a_2000_chunk_bank_take_a_byte_a_count(tmp_path):
    # after an open of 2,000 chunks and one arrival, the retriever's and the
    # QA bank's count rows are int8, a byte per count of capacity; a row past
    # int8's squared norm, 127**2, then widens the retriever's to int16, two
    # bytes a count, every count kept
    eng = make_engine(tmp_path / "bank", chunk_words=3)
    eng.ingest_chunks([" ".join(f"w{i}" for i in range(6000))], 0)
    eng.handle_query("what is w7 next to?", 1)
    eng.persist()
    reopened = make_engine(tmp_path / "bank", chunk_words=3)
    assert len(reopened.retriever) == 2000
    reopened.apply_event({"at": 2, "kind": "chunk_arrival", "text": "alpha beta gamma"})
    rows = reopened.retriever.rows
    assert len(rows.counts) == 2001 and len(reopened.qa.entries) == 1
    assert rows.counts.itemsize == reopened.qa._rows.counts.itemsize == 1
    assert rows._counts.nbytes <= EMBED_DIM * rows.capacity
    held = rows.counts.tolist()
    reopened.retriever.add_chunk("wide", "", embedding_from_counts(np.eye(EMBED_DIM)[0] * 128))
    assert rows.counts.itemsize == 2 and rows._counts.nbytes <= 2 * EMBED_DIM * rows.capacity
    assert rows.counts[:-1].tolist() == held


def test_sequence_numbers_continue_after_reopen(tmp_path):
    # last_used orders LFU ties and restoration, and a new QA entry takes
    # the last row; a reopened bank must not reuse the numbers it persisted
    eng = make_engine(tmp_path / "bank")
    eng.ingest_chunks([CORPUS], 0)
    for i, q in enumerate(("what is the budget review plan?", "when is the team meeting?",
                           "where is the project report stored?")):
        eng.handle_query(q, i + 1)
    eng.persist()
    persisted = max([n.last_used for n in eng.bank.nodes.values()]
                    + [e.last_used for e in eng.qa.entries])
    reopened = make_engine(tmp_path / "bank")
    q = "who wrote the agenda for monday?"
    assert reopened.handle_query(q, 10).path != QA_HIT
    assert reopened.qa.get(q).last_used > persisted
    assert list(reopened.qa.entries)[-1] is reopened.qa.get(q)
    assert reopened.bank.root.last_used > persisted


def test_qa_file_with_created_at_opens_and_persists_without_it(tmp_path):
    # qa.jsonl once also held each entry's created_at, which rose with its
    # line; the row order says the same, so load ignores the key
    recs = [
        {"query": "when is the team meeting?", "answer": "at noon", "created_at": 4,
         "last_used": 9, "use_count": 2, "stale": False},
        {"query": "what is the budget review plan?", "answer": "a plan", "created_at": 6,
         "last_used": 6, "use_count": 0, "stale": True},
        {"query": "who wrote the agenda?", "answer": None, "created_at": 7, "last_used": 7,
         "use_count": 0, "stale": False},
        {"query": "where is the report?", "answer": "on the drive", "created_at": 8,
         "last_used": 12, "use_count": 1, "stale": False},
    ]
    bank = tmp_path / "bank"
    bank.mkdir()
    (bank / "qa.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
    eng = make_engine(bank)
    fields = ("query", "answer", "stale", "use_count", "last_used")
    assert [tuple(getattr(e, f) for f in fields) for e in eng.qa.entries] == [
        tuple(r[f] for f in fields) for r in recs]
    assert [e.query for e in eng.qa.pending()] == [recs[1]["query"], recs[2]["query"]]
    hit = eng.handle_query(recs[0]["query"], 1)
    assert (hit.path, hit.answer) == (QA_HIT, "at noon")
    assert eng.qa.get(recs[0]["query"]).last_used == 13  # the next past the file's largest
    eng.persist()
    recs[0].update(use_count=3, last_used=13)
    lines = (bank / "qa.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        {k: v for k, v in r.items() if k != "created_at"} for r in recs]


def test_bank_with_write_only_keys_opens_and_persists_without_them(tmp_path):
    # an older bank format also wrote token_count to chunks.jsonl and
    # manifest.jsonl and decoded to qa.jsonl; nothing read them
    eng = make_engine(tmp_path / "new")
    eng.ingest_chunks([CORPUS], 0)
    eng.handle_query("what is the budget review plan?", 1)
    eng.handle_query("when is the team meeting?", 2)
    eng.qa.insert("pending q", eng.embedder.embed("pending q"), None, 3)
    eng.persist()
    new = _dir_bytes(tmp_path / "new")
    assert any(name.startswith("slices/") for name in new)
    node_tokens = {n.node_id: n.tensors.token_count if n.present else 0
                   for n in eng.bank.nodes.values()}
    old_dir = shutil.copytree(tmp_path / "new", tmp_path / "old")
    for name, key, value in (
        ("chunks.jsonl", "token_count", lambda r: len(tokenize(r["text"], eng.vocab))),
        ("manifest.jsonl", "token_count", lambda r: node_tokens[r["id"]]),
        ("qa.jsonl", "decoded", lambda r: r["answer"] is not None),
    ):
        recs = [json.loads(line) for line in new[name].decode("utf-8").splitlines()]
        assert recs and all(key not in r for r in recs)
        (old_dir / name).write_text("".join(
            json.dumps({**r, key: value(r)}, sort_keys=True) + "\n" for r in recs),
            encoding="utf-8")
    qa_lines = (old_dir / "qa.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["decoded"] for line in qa_lines} == {True, False}

    make_engine(old_dir).persist()
    assert _dir_bytes(old_dir) == new


def _dir_bytes(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_run_trace_records_all_events(tmp_path):
    eng = make_engine(tmp_path)
    events = load_trace("monotonicity.trace")
    records = [eng.apply_event(event) for event in events]
    assert len(records) == len(events)
    assert [r["at"] for r in records] == [e["at"] for e in events]
    for rec in records:
        json.dumps(rec)  # every record is JSON-serializable
