import pytest

from percache import engine as engine_module
from percache import knowledge, textcore
from percache.config import EngineConfig
from percache.engine import Engine, open_bank
from percache.retrieval import Retriever
from percache.scheduler import population_decodes

from conftest import DATA, load_trace, make_engine


@pytest.mark.parametrize(
    "tau_q,tau_s,qa,scheduler,expected",
    [
        (0.90, 0.88, True, True, False),  # PrefillOnly above the cutoff
        (0.85, 0.88, True, True, True),  # PrefillAndDecode below it
        (0.88, 0.88, True, True, False),  # boundary: equality is PrefillOnly
        (0.0, 0.0, True, True, False),
        (0.0, 1.0, True, True, True),
        (0.90, 0.88, True, False, True),  # no adaptive scheduler: always decodes
        (0.85, 0.88, True, False, True),
        (0.85, 0.88, False, True, False),  # QA off: nothing decodes
        (0.90, 0.88, False, True, False),
        (0.85, 0.88, False, False, False),
    ],
)
def test_population_decodes_table(tau_q, tau_s, qa, scheduler, expected):
    config = EngineConfig(tau_query=tau_q, tau_scheduler=tau_s, qa_enabled=qa,
                          scheduler_enabled=scheduler)
    assert population_decodes(config) is expected


def test_scheduler_config_validation():
    # The scheduler's thresholds and QKV budget are validated where they live.
    with pytest.raises(ValueError):
        EngineConfig(tau_query=1.5)
    with pytest.raises(ValueError):
        EngineConfig(tau_scheduler=-0.1)
    with pytest.raises(ValueError):
        EngineConfig(qkv_limit_bytes=-1)


def test_tick_report_as_dict_keys(tmp_path):
    # an idle_tick metrics record holds the event, every TickReport field
    # and the common tail, nothing else
    record = make_engine(tmp_path).apply_event({"at": 3.0, "kind": "idle_tick", "budget": 0})
    assert set(record) == {
        "at", "kind",
        "deferred_answered", "stale_reanswered", "converted_to_qa",
        "restored_nodes", "predicted_knowledge", "predicted_history",
        "populated", "abstract_updates", "flops_spent", "predicted_decode_flops",
        "qa_entries", "qa_used_bytes", "qkv_used_bytes", "qa_hits", "qkv_hits", "flops_cum",
    }
    assert record["at"] == 3.0


CORPUS = (DATA / "corpus.txt").read_text(encoding="utf-8")


def _engine_with_pending(tmp_path, n=3, **overrides):
    """Engine with the bundled corpus and n answer-less (predicted) entries."""
    eng = make_engine(tmp_path, **overrides)
    eng.ingest_chunks([CORPUS], 0)
    queries = [
        "what is the budget review plan?",
        "where is the project report stored?",
        "when is the training workshop at noon?",
    ][:n]
    for i, q in enumerate(queries):
        eng.qa.insert(q, eng.embedder.embed(q), None, i)
    return eng


def _defer(eng, text):
    """Queue text for deferred answering as a QA hit does."""
    eng.deferred_queries[text] = eng.embedder.embed(text)


def test_zero_budget_tick_does_nothing(tmp_path):
    eng = _engine_with_pending(tmp_path)
    _defer(eng, "what is the budget review plan?")
    report = eng.scheduler.idle_tick(0.0, now=10)
    assert report.flops_spent == 0.0
    assert report.deferred_answered == 0 and report.converted_to_qa == 0
    assert len(eng.qa.pending()) == 3 and eng.deferred_queries


def test_budget_caps_conversions(tmp_path):
    # tau_query (0.85) < tau_scheduler (0.88): strategy decodes, so the
    # three answer-less entries are converted; the budget check runs before
    # each item, so a budget just over the first conversion's cost admits
    # exactly two
    probe = _engine_with_pending(tmp_path / "probe")
    first = probe.scheduler.idle_tick(1e-9, now=10)
    assert first.converted_to_qa == 1 and first.flops_spent > 0

    eng = _engine_with_pending(tmp_path / "run")
    report = eng.scheduler.idle_tick(first.flops_spent + 1.0, now=10)
    assert report.converted_to_qa == 2
    assert len(eng.qa.pending()) == 1

    full = _engine_with_pending(tmp_path / "full")
    report = full.scheduler.idle_tick(1e15, now=10)
    assert report.converted_to_qa == 3 and full.qa.pending() == []


def test_deferred_runs_before_conversions(tmp_path):
    eng = _engine_with_pending(tmp_path)
    _defer(eng, "how many hiring interviews are planned?")
    report = eng.scheduler.idle_tick(1e-9, now=10)
    assert report.deferred_answered == 1
    assert report.stale_reanswered == 0 and report.converted_to_qa == 0
    assert eng.deferred_queries == {}


def test_deferred_answer_reuses_the_hit_embedding(tmp_path):
    # a QA hit queues its query with the embedding it was matched with, so
    # the idle answer does not embed the text again
    eng = _engine_with_pending(tmp_path, n=0)
    known = "what is the budget review plan?"
    eng.qa.insert(known, eng.embedder.embed(known), "an answer", 0)
    text = "what is the budget review plan"
    assert eng.handle_query(text, now=1).path == "qa_hit"
    assert list(eng.deferred_queries) == [text]
    embedded = []
    embed = eng.embedder.embed
    eng.embedder.embed = lambda t: embedded.append(t) or embed(t)
    report = eng.scheduler.idle_tick(1e15, now=10)
    assert report.deferred_answered == 1 and eng.qa.get(text).answer is not None
    assert text not in embedded


def test_stale_runs_before_conversions(tmp_path):
    eng = _engine_with_pending(tmp_path)
    eng.qa.insert("who wrote the agenda for monday?", eng.embedder.embed("who wrote the agenda for monday?"), "old", 0)
    eng.qa.mark_stale("who wrote the agenda for monday?")
    report = eng.scheduler.idle_tick(1e-9, now=10)
    assert report.stale_reanswered == 1 and report.converted_to_qa == 0
    entry = eng.qa.get("who wrote the agenda for monday?")
    assert not entry.stale and entry.answer != "old"


def test_scheduler_disabled_skips_conversions(tmp_path):
    eng = _engine_with_pending(tmp_path, scheduler_enabled=False)
    report = eng.scheduler.idle_tick(1e15, now=10)
    assert report.converted_to_qa == 0 and report.restored_nodes == 0
    assert len(eng.qa.pending()) == 3  # still answer-less
    # deferred answering still runs without the scheduler
    _defer(eng, "how many hiring interviews are planned?")
    report = eng.scheduler.idle_tick(1e15, now=11)
    assert report.deferred_answered == 1


def test_prefill_only_leaves_entries_answerless(tmp_path):
    # tau_query raised to the cutoff: population stops at prefill
    eng = _engine_with_pending(tmp_path, n=0, tau_query=0.88)
    # scripted backend with no entries returns ""; instead drive population
    # directly through the engine hook
    cost = eng.populate_predicted("when is the budget review due?", decode=False)
    assert cost is not None and cost.decode_flops == 0.0
    entry = eng.qa.get("when is the budget review due?")
    assert entry is not None and entry.answer is None
    # the QKV tree was populated even though no answer was decoded
    assert eng.bank.ledger.used_bytes > 0
    # repeat population of the same query is a no-op
    assert eng.populate_predicted("when is the budget review due?", decode=False) is None


def test_qa_disabled_mid_trace_leaves_answering_waiting(tmp_path):
    # answering stores nothing with QA off, so it waits instead of
    # spending the budget on the same pending entries every tick
    eng = _engine_with_pending(tmp_path)
    _defer(eng, "how many hiring interviews are planned?")
    eng.config.apply("qa_enabled", "false")
    report = eng.scheduler.idle_tick(1e15, now=10)
    assert report.deferred_answered == 0 and report.converted_to_qa == 0
    assert len(eng.qa.pending()) == 3 and eng.deferred_queries


def _bundled_engine(bank_dir, cfg: str, **changes) -> Engine:
    """Engine over a bank of the bundled corpus, as `percache ingest` makes
    it, under the bundled config cfg with changes applied."""
    config = EngineConfig.from_file(DATA / "configs" / f"{cfg}.cfg")
    for key, value in changes.items():
        config.apply(key, value)
    bank = open_bank(config, bank_dir)
    bank.ingest_text(CORPUS)
    bank.persist()
    return Engine(config, bank_dir)


def test_qa_disabled_idle_work_fills_no_qa_bank(tmp_path):
    # the idle_work pair with qa_enabled=false appended to its config:
    # population still prefills into the QKV tree but never decodes, and
    # nothing reaches the QA bank
    eng = _bundled_engine(tmp_path / "bank", "idle_work", qa_enabled="false")
    ticks = [r for r in eng.run_trace(load_trace("idle_work.trace")) if r["kind"] == "idle_tick"]
    assert ticks and sum(r["populated"] for r in ticks) > 0
    for r in ticks:
        assert r["qa_entries"] == 0
        assert r["converted_to_qa"] == 0
        assert r["predicted_decode_flops"] == 0


def test_caches_off_idle_work_populates_nothing(tmp_path):
    # the idle_work pair with qa_enabled=false and reuse_enabled=false
    # appended: with nowhere to store a result, population does no work
    # and counts nothing
    eng = _bundled_engine(tmp_path / "bank", "idle_work", qa_enabled="false",
                          reuse_enabled="false")
    ticks = [r for r in eng.run_trace(load_trace("idle_work.trace")) if r["kind"] == "idle_tick"]
    assert ticks and sum(r["predicted_knowledge"] + r["predicted_history"] for r in ticks) > 0
    for r in ticks:
        assert r["populated"] == 0
        assert r["predicted_decode_flops"] == 0
        assert r["flops_spent"] == 0


def _engine_with_evicted_paths(tmp_path, slices=None, **overrides):
    """Engine that cached the retrieval paths of four answered queries in
    the QKV tree, after which every slice was evicted and the budget was
    restored to the default. slices, if given, takes each node's array
    as it was before the eviction."""
    eng = _engine_with_pending(tmp_path, n=0, **overrides)
    for query in ("what is the budget review plan?", "where is the project report stored?",
                  "when is the training workshop at noon?", "who wrote the agenda for monday?"):
        eng.answer(query)
    if slices is not None:
        slices.update((n.node_id, n.tensors.data.copy()) for n in eng.bank.nodes.values())
    eng.bank.set_limit(0)
    eng.bank.set_limit(eng.config.qkv_limit_bytes)
    return eng


def _count_prefills(eng) -> list:
    calls = []
    prefill = eng.model.prefill
    eng.model.prefill = lambda *args, **kwargs: calls.append(args) or prefill(*args, **kwargs)
    return calls


def test_restoration_counts_its_own_flops_against_the_budget(tmp_path):
    full = _engine_with_evicted_paths(tmp_path / "full")
    prefills = _count_prefills(full)
    assert full.scheduler.idle_tick(1e15, now=10).restored_nodes > 0
    assert len(prefills) > 1

    probe = _engine_with_evicted_paths(tmp_path / "probe")
    one_prefill = probe.scheduler.idle_tick(1.0, now=10).flops_spent
    eng = _engine_with_evicted_paths(tmp_path / "run")
    prefills = _count_prefills(eng)
    report = eng.scheduler.idle_tick(one_prefill, now=10)
    assert len(prefills) == 1 and report.flops_spent == one_prefill


def test_restoration_with_nothing_writable_spends_nothing(tmp_path):
    # every absent slice on the entries' paths is larger than the free
    # space, so no refill could be written and no prefill runs
    eng = _engine_with_evicted_paths(tmp_path)
    smallest = min(n.byte_size for n in eng.bank.nodes.values())
    eng.bank.set_limit(smallest - 1)
    macs = eng.model.mac_count
    report = eng.scheduler.idle_tick(1e15, now=10)
    assert report.restored_nodes == 0 and report.flops_spent == 0.0
    assert eng.model.mac_count == macs


def test_restored_slices_equal_the_evicted_ones(tmp_path, monkeypatch):
    # the golden replays' contract-1 check compares each restoration
    # prefill with a prefill of the whole prompt; this also checks that
    # every slice it writes back equals, bit for bit, the array last
    # evicted from that node
    evicted, restored = {}, []
    evict, restore = knowledge.KnowledgeBank._evict_node, Engine.restore_evicted_slices

    def keep(self, node):
        evicted[node.node_id] = node.tensors.data.copy()
        evict(self, node)

    def checked(self, flops_left):
        ids, cost = restore(self, flops_left)
        for node_id in ids:
            data = self.bank.nodes[node_id].tensors.data
            assert data.tobytes() == evicted[node_id].tobytes(), node_id
        restored.extend(ids)
        return ids, cost

    monkeypatch.setattr(knowledge.KnowledgeBank, "_evict_node", keep)
    monkeypatch.setattr(Engine, "restore_evicted_slices", checked)
    for trace, cfg in (("idle_work", "idle_work"), ("limit_relax", "scenario_c")):
        evicted.clear()
        _bundled_engine(tmp_path / trace, cfg).run_trace(load_trace(f"{trace}.trace"))
    assert restored


def test_restoration_moves_no_lfu_count_and_retrieves_nothing(tmp_path, monkeypatch):
    eng = _engine_with_evicted_paths(tmp_path)
    before = {n.node_id: (n.retrieval_count, n.last_used) for n in eng.bank.nodes.values()}
    calls = []

    def refuse(name):
        return lambda *args, **kwargs: calls.append(name)

    monkeypatch.setattr(Retriever, "retrieve_top_k", refuse("retrieve_top_k"))
    for module in (textcore, engine_module, knowledge):
        monkeypatch.setattr(module, "tokenize", refuse("tokenize"))
    assert eng.scheduler.idle_tick(1e15, now=10).restored_nodes > 0
    assert calls == []
    assert {n.node_id: (n.retrieval_count, n.last_used) for n in eng.bank.nodes.values()} == before


def test_restoration_works_with_qa_disabled(tmp_path):
    eng = _engine_with_evicted_paths(tmp_path, qa_enabled=False)
    absent = sorted(n.node_id for n in eng.bank.nodes.values() if not n.present)
    assert len(absent) > 1 and not eng.qa.entries
    report = eng.scheduler.idle_tick(1e15, now=10)
    assert report.restored_nodes == len(absent)
    assert all(n.present for n in eng.bank.nodes.values())


def test_node_evicted_before_persist_is_restored_after_reopen(tmp_path):
    slices = {}
    eng = _engine_with_evicted_paths(tmp_path, slices)
    eng.persist()
    reopened = Engine(eng.config, tmp_path)
    assert not any(n.present for n in reopened.bank.nodes.values())
    assert reopened.scheduler.idle_tick(1e15, now=10).restored_nodes == len(slices)
    for node in reopened.bank.nodes.values():
        assert node.tensors.data.tobytes() == slices[node.node_id].tobytes()


def test_restoration_skips_a_node_without_token_ids(tmp_path):
    # a node whose record kept no token ids (a bank written before they
    # were kept) cannot be prefilled; its descendants wait for it
    eng = _engine_with_evicted_paths(tmp_path)
    node = next(n for n in eng.bank.nodes.values() if n.parent is eng.bank.root and n.children)
    node.token_ids = None
    restored, _ = eng.restore_evicted_slices(1e15)
    assert node.node_id not in restored and not node.present
    assert not any(child.present for child in node.children)
    assert eng.bank.root.present and len(restored) > 1


def test_restoration_skips_a_root_path_without_tokens(tmp_path):
    # an empty system prompt gives the root no token rows, and a prompt of
    # no tokens cannot be prefilled: the root waits for a query to refill it
    eng = _engine_with_evicted_paths(tmp_path, system_prompt="")
    assert eng.bank.root.token_ids == () and not eng.bank.root.present
    assert eng.scheduler.idle_tick(1e15, now=10).restored_nodes == 0
    eng.answer("what is the budget review plan?")
    assert eng.bank.root.present
    assert eng.scheduler.idle_tick(1e15, now=11).restored_nodes > 0
