import copy

import pytest

from percache.config import EngineConfig
from percache.engine import Engine, open_bank
from percache.knowledge import StorageError
from percache.scheduler import (
    PopulationStrategy,
    choose_strategy,
)

from conftest import DATA, load_trace, make_engine


@pytest.mark.parametrize(
    "tau_q,tau_s,expected",
    [
        (0.90, 0.88, PopulationStrategy.PREFILL_ONLY),
        (0.85, 0.88, PopulationStrategy.PREFILL_AND_DECODE),
        (0.88, 0.88, PopulationStrategy.PREFILL_ONLY),  # boundary: equality
        (0.0, 0.0, PopulationStrategy.PREFILL_ONLY),
        (0.0, 1.0, PopulationStrategy.PREFILL_AND_DECODE),
    ],
)
def test_choose_strategy_table(tau_q, tau_s, expected):
    assert choose_strategy(tau_q, tau_s) is expected


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
    eng.qa.get("who wrote the agenda for monday?").stale = True
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
    eng.predictor.abstract.sentences = ["summary."]
    eng.abstract_dirty = True
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


def test_qa_disabled_idle_work_fills_no_qa_bank(tmp_path):
    # the idle_work pair with qa_enabled=false appended to its config:
    # population still prefills into the QKV tree but never decodes, and
    # nothing reaches the QA bank
    config = EngineConfig.from_file(DATA / "configs" / "idle_work.cfg")
    config.apply("qa_enabled", "false")
    bank = open_bank(config, tmp_path / "bank")
    bank.ingest_text(CORPUS)
    bank.persist()
    eng = Engine(config, tmp_path / "bank")
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
    config = EngineConfig.from_file(DATA / "configs" / "idle_work.cfg")
    config.apply("qa_enabled", "false")
    config.apply("reuse_enabled", "false")
    bank = open_bank(config, tmp_path / "bank")
    bank.ingest_text(CORPUS)
    bank.persist()
    eng = Engine(config, tmp_path / "bank")
    ticks = [r for r in eng.run_trace(load_trace("idle_work.trace")) if r["kind"] == "idle_tick"]
    assert ticks and sum(r["predicted_knowledge"] + r["predicted_history"] for r in ticks) > 0
    for r in ticks:
        assert r["populated"] == 0
        assert r["predicted_decode_flops"] == 0
        assert r["flops_spent"] == 0


def _engine_with_evicted_paths(tmp_path):
    """Engine whose answered QA entries cached their retrieval paths in the
    QKV tree, after which every slice was evicted and the budget was
    restored to the default."""
    eng = _engine_with_pending(tmp_path, n=0)
    for query in ("what is the budget review plan?", "where is the project report stored?",
                  "when is the training workshop at noon?", "who wrote the agenda for monday?"):
        eng.answer(query)
    eng.bank.set_limit(0, eng._seq())
    eng.bank.set_limit(eng.config.qkv_limit_bytes, eng._seq())
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
    eng.bank.set_limit(smallest - 1, eng._seq())
    macs = eng.model.mac_count
    report = eng.scheduler.idle_tick(1e15, now=10)
    assert report.restored_nodes == 0 and report.flops_spent == 0.0
    assert eng.model.mac_count == macs


def test_restoration_skips_only_prefills_that_would_write_nothing(tmp_path, monkeypatch):
    # oracle: for each entry restoration skips, the unplanned path on a copy
    # of the engine (prefill, then insert with eviction refused) writes no node
    infer = Engine._infer
    skipped = []

    def checked(self, query, decode, embedding, restoring=False):
        if not restoring:
            return infer(self, query, decode, embedding)
        before = copy.deepcopy(self)
        result = infer(self, query, decode, embedding, restoring=True)
        if result is None:
            old = infer(before, query, decode, embedding)
            try:
                written = before.bank.slice_and_insert(
                    old.segments, old.tokens, old.tensors, before._seq(), allow_evict=False)
            except StorageError:
                written = []
            assert written == [], f"skipped a restoration of {query!r} that writes {written}"
            skipped.append(query)
        return result

    monkeypatch.setattr(Engine, "_infer", checked)
    for trace, cfg in (("idle_work", "idle_work"), ("limit_relax", "scenario_c")):
        config = EngineConfig.from_file(DATA / "configs" / f"{cfg}.cfg")
        bank = open_bank(config, tmp_path / trace)
        bank.ingest_text(CORPUS)
        bank.persist()
        Engine(config, tmp_path / trace).run_trace(load_trace(f"{trace}.trace"))
    assert skipped
