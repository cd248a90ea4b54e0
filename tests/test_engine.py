import json
import shutil

import pytest

from percache.config import EngineConfig
from percache.engine import COLD_MISS, QA_HIT, QKV_PARTIAL, Engine, TraceError
from percache.predictor import PhaseError
from percache.textcore import tokenize

from conftest import DATA, load_trace, make_engine

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
    assert eng.qa_hits == 1


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
    assert eng.qkv_hits == 1


def test_reuse_disabled_never_matches(tmp_path):
    eng = make_engine(tmp_path, tau_query=1.0, reuse_enabled=False)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    second = eng.handle_query(q, 2)
    assert second.path == COLD_MISS and second.l_pre == 0
    assert eng.bank.ledger.used_bytes == 0


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


def test_config_change_shrink_evicts_immediately(tmp_path):
    eng = make_engine(tmp_path)
    eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": CORPUS})
    eng.apply_event({"at": 1, "kind": "query_arrival", "text": "what is the budget review plan?"})
    assert eng.bank.ledger.used_bytes > 0
    record = eng.apply_event(
        {"at": 2, "kind": "config_change", "field": "qkv_limit_bytes", "value": 1024}
    )
    assert record["evicted_nodes"]
    assert eng.bank.ledger.used_bytes <= 1024


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


def test_config_change_tau_applies_immediately(tmp_path):
    eng = make_engine(tmp_path)
    eng.ingest_chunks([CORPUS], 0)
    q = "what is the budget review plan?"
    eng.handle_query(q, 1)
    eng.apply_event({"at": 2, "kind": "config_change", "field": "tau_query", "value": 1.0})
    assert eng.handle_query(q, 3).path != QA_HIT


def test_metrics_tail_fields(tmp_path):
    eng = make_engine(tmp_path)
    record = eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": "alpha beta"})
    for key in ("qa_entries", "qa_used_bytes", "qkv_used_bytes", "qa_hits",
                "qkv_hits", "flops_cum"):
        assert key in record


def test_trace_replay_deterministic(tmp_path):
    events = load_trace("threshold_drop.trace")
    outputs = []
    for run in ("a", "b"):
        eng = Engine(
            EngineConfig.from_file(DATA / "configs" / "scenario.cfg"), tmp_path / run
        )
        eng.run_trace(events)
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
        eng.predictor.predict_from_history(lambda q: False)
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


def test_sequence_numbers_continue_after_reopen(tmp_path):
    # created_at and last_used order QA and LFU tie-breaks and restoration;
    # a reopened bank must not reuse the numbers it persisted
    eng = make_engine(tmp_path / "bank")
    eng.ingest_chunks([CORPUS], 0)
    for i, q in enumerate(("what is the budget review plan?", "when is the team meeting?",
                           "where is the project report stored?")):
        eng.handle_query(q, i + 1)
    eng.persist()
    persisted = max([n.last_used for n in eng.bank.nodes.values()]
                    + [max(e.created_at, e.last_used) for e in eng.qa.entries])
    reopened = make_engine(tmp_path / "bank")
    q = "who wrote the agenda for monday?"
    assert reopened.handle_query(q, 10).path != QA_HIT
    assert reopened.qa.get(q).created_at > persisted
    assert reopened.bank.root.last_used > persisted


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
    records = eng.run_trace(events)
    assert len(records) == len(events)
    assert [r["at"] for r in records] == [e["at"] for e in events]
    for rec in records:
        json.dumps(rec)  # every record is JSON-serializable
