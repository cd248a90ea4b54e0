import pytest

from percache import engine as engine_module
from percache import knowledge, textcore
from percache.backend import QkvPrefix, QkvTensors
from percache.config import EngineConfig
from percache.engine import Engine, open_bank
from percache.predictor import TEMPLATE_KNOWLEDGE, TEMPLATE_SUMMARIZE
from percache.retrieval import Retriever
from percache.scheduler import population_decodes

from conftest import DATA, load_trace, make_engine


@pytest.mark.parametrize(
    "tau_q,tau_s,qa,scheduler,expected",
    [
        (0.90, 0.88, True, True, False),  # PrefillOnly above the cutoff
        (0.85, 0.88, True, True, True),  # PrefillAndDecode below it
        (0.88, 0.88, True, True, False),  # boundary: equality is PrefillOnly
        (0.8799, 0.88, True, True, True),
        (0.0, 0.88, True, True, True),
        (1.0, 0.88, True, True, False),
        (0.90, 0.88, True, False, True),  # no adaptive scheduler: always decodes
        (0.85, 0.88, True, False, True),
        (0.85, 0.88, False, True, False),  # QA off: nothing decodes
        (0.90, 0.88, False, True, False),
        (0.85, 0.88, False, False, False),
    ],
)
def test_population_decodes_table(tau_q, tau_s, qa, scheduler, expected):
    # tau_s is the constant cutoff each row's expectation assumes
    config = EngineConfig(tau_query=tau_q, qa_enabled=qa, scheduler_enabled=scheduler)
    assert config.tau_scheduler == tau_s
    assert population_decodes(config) is expected


def test_scheduler_config_validation():
    # The scheduler's threshold and QKV budget are validated where they live.
    with pytest.raises(ValueError):
        EngineConfig(tau_query=1.5)
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
        "qa_entries", "qa_used_bytes", "qkv_used_bytes",
    }
    assert record["at"] == 3.0


class _SummaryQueue:
    """Text backend giving each summarize prompt the next queued summary
    and every prediction prompt the questions given (one by default);
    records the templates."""

    def __init__(self, summaries, questions="1. who is on the team?"):
        self.summaries = list(summaries)
        self.questions = questions
        self.templates = []

    def generate(self, template, slots):
        self.templates.append(template)
        return self.summaries.pop(0) if template == TEMPLATE_SUMMARIZE else self.questions


def test_knowledge_view_predicts_once_per_abstract_update(tmp_path):
    # the knowledge view predicts in the tick that changed the abstract and
    # not again until the next change: not after a backend miss, and not on
    # a tick with no new chunk
    eng = make_engine(tmp_path, t_batch=0)
    eng.predictor.backend = backend = _SummaryQueue(["", "a.", "b."])
    # tick time -> abstract_updates, predicted_knowledge, the abstract after
    expected = {1: (0, 0, []), 2: (1, 1, ["a."]), 3: (0, 0, ["a."]),
                5: (1, 1, ["a.", "b."]), 6: (0, 0, ["a.", "b."])}
    for at in range(7):
        if at in expected:
            record = eng.apply_event({"at": at, "kind": "idle_tick", "budget": 1e15})
            got = (record["abstract_updates"], record["predicted_knowledge"], eng.predictor.abstract)
            assert got == expected[at], at
        else:
            eng.apply_event({"at": at, "kind": "chunk_arrival", "text": f"note number {at} of the day"})
    assert backend.templates.count(TEMPLATE_KNOWLEDGE) == 2


@pytest.mark.parametrize("budget, populated", [(1e-9, 1), (1e15, 2)])
def test_budget_caps_population(tmp_path, budget, populated):
    # the budget check runs before each predicted query: a budget that the
    # first population exhausts stops the tick before the second
    eng = make_engine(tmp_path, t_batch=0)
    eng.predictor.backend = _SummaryQueue(
        ["a."], "1. who is on the team?; 2. when is the budget review?")
    eng.apply_event({"at": 0, "kind": "chunk_arrival", "text": "the team plans the budget review"})
    record = eng.apply_event({"at": 1, "kind": "idle_tick", "budget": budget})
    assert record["predicted_knowledge"] == 2
    assert record["populated"] == populated and record["flops_spent"] > 0


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
    assert eng.bank.used_bytes > 0
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
    ticks = [r for r in map(eng.apply_event, load_trace("idle_work.trace"))
             if r["kind"] == "idle_tick"]
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
    ticks = [r for r in map(eng.apply_event, load_trace("idle_work.trace"))
             if r["kind"] == "idle_tick"]
    assert ticks and sum(r["predicted_knowledge"] + r["predicted_history"] for r in ticks) > 0
    for r in ticks:
        assert r["populated"] == 0
        assert r["predicted_decode_flops"] == 0
        assert r["flops_spent"] == 0


QUERIES = ("what is the budget review plan?", "where is the project report stored?",
           "when is the training workshop at noon?", "who wrote the agenda for monday?")


def _engine_with_evicted_paths(tmp_path, slices=None, queries=QUERIES, **overrides):
    """Engine that cached the retrieval paths of the answered queries (by
    default four) in the QKV tree, after which every slice was evicted and
    the budget was restored to the default. slices, if given, takes each
    node's array as it was before the eviction."""
    eng = _engine_with_pending(tmp_path, n=0, **overrides)
    for query in queries:
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
    # one prefill per chain: the root with its first child's path, then
    # each other child's path behind the restored root
    assert len(prefills) == len(full.bank.root.children) == 4

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
        eng = _bundled_engine(tmp_path / trace, cfg)
        for event in load_trace(f"{trace}.trace"):
            eng.apply_event(event)
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


def _restore_node_by_node(eng, flops_left):
    """The reference for Engine.restore_evicted_slices: one prefill per
    node, in the same order, under the same skip rules and charges."""
    bank, cfg, restored, flops = eng.bank, eng.model.config, [], 0.0
    absent = sorted((n for n in bank.nodes.values() if not n.present and n.token_ids is not None),
                    key=lambda n: (-n.retrieval_count, n.node_id))
    for node in absent:
        if flops >= flops_left:
            break
        path = [node]
        while path[0].parent is not None:
            path.insert(0, path[0].parent)
        kept = [n.token_ids for n in path]
        size = knowledge.slice_bytes(cfg.layers, len(node.token_ids), cfg.heads, cfg.head_dim)
        if (None in kept or (node.parent is not None and not node.parent.present)
                or not bank.fits(size) or not any(kept)):
            continue
        ids = sum(kept, ())
        cached = path[: [n.present for n in path].index(False)]
        l_pre = sum(len(n.token_ids) for n in cached)
        state = eng.model.prefill(ids, QkvPrefix(
            QkvTensors.concat([n.tensors for n in cached]), l_pre) if cached else None)
        flops += eng.cost_model.estimate_cost(l_total=len(ids), l_pre=l_pre).total_flops
        bank.hold(node, state.tensors.slice_tokens(len(ids) - len(node.token_ids), len(ids)))
        restored.append(node.node_id)
    return restored, flops


def _restore_against_reference(tmp_path, flops_left, queries=QUERIES, prepare=None):
    """Restore on one engine and, node by node, on its twin, after calling
    prepare(engine) on both; both must restore the same ids in the same
    order, charge the same FLOPs and hold the same bytes, and every
    restored slice must equal the evicted array bit for bit. Returns the
    engine, the restored ids and its prefills."""
    slices = {}
    ref = _engine_with_evicted_paths(tmp_path / "ref", queries=queries)
    eng = _engine_with_evicted_paths(tmp_path / "run", slices, queries=queries)
    for twin in (ref, eng) if prepare else ():
        prepare(twin)
    expected = _restore_node_by_node(ref, flops_left)
    prefills = _count_prefills(eng)
    assert eng.restore_evicted_slices(flops_left) == expected
    assert eng.bank.used_bytes == ref.bank.used_bytes
    for node_id, node in eng.bank.nodes.items():
        assert node.present == ref.bank.nodes[node_id].present, node_id
        assert node.present == (node_id in expected[0]), node_id
        if node.present:
            assert node.tensors.data.tobytes() == slices[node_id].tobytes(), node_id
    return eng, expected[0], prefills


def test_a_fully_evicted_root_path_restores_with_one_prefill(tmp_path):
    eng, restored, prefills = _restore_against_reference(tmp_path, 1e15, QUERIES[:1])
    assert len(restored) == 4 and len(prefills) == 1  # the root and three chunks
    ids, prefix = prefills[0]
    assert prefix is None and len(ids) == sum(len(n.token_ids) for n in eng.bank.nodes.values())


@pytest.mark.parametrize("share", [0.01, 1.0])
def test_a_budget_into_the_second_charge_restores_two_nodes_with_one_prefill(tmp_path, share):
    # the first node's charge is below the budget, so the second is
    # admitted, and the two charges reach it, so no third is
    first = _restore_node_by_node(
        _engine_with_evicted_paths(tmp_path / "one", queries=QUERIES[:1]), 1.0)[1]
    both = _restore_node_by_node(
        _engine_with_evicted_paths(tmp_path / "two", queries=QUERIES[:1]), first + 1)[1]
    _, restored, prefills = _restore_against_reference(
        tmp_path, first + (both - first) * share, QUERIES[:1])
    assert len(restored) == 2 and len(prefills) == 1


def test_evicted_siblings_take_one_prefill_each_behind_the_restored_parent(tmp_path):
    eng, restored, prefills = _restore_against_reference(tmp_path, 1e15, QUERIES[:2])
    root = eng.bank.root
    assert len(root.children) == 2 and len(restored) == len(eng.bank.nodes)
    assert len(prefills) == 2
    assert prefills[0][1] is None
    assert prefills[1][1].prefix_token_count == len(root.token_ids)



def test_a_chain_grows_after_a_sibling_chain_starts(tmp_path):
    # LFU order admits the root, its first child, then its second child
    # (a chain of its own), and only then the first child's child, which
    # still joins the first chain; that chain runs first
    def counts(eng):
        eng.bank.nodes[1].retrieval_count, eng.bank.nodes[4].retrieval_count = 2, 1

    eng, restored, prefills = _restore_against_reference(tmp_path, 1e15, prepare=counts)
    assert restored[:4] == [0, 1, 4, 2]
    assert len(prefills) == len(eng.bank.root.children) == 4
    assert prefills[0][1] is None
    assert all(p[1].prefix_token_count == len(eng.bank.root.token_ids) for p in prefills[1:])


def test_admitted_slices_use_up_the_free_space(tmp_path):
    # room for the root and its first child only: every later node finds
    # the space the two admitted before it took
    def limit(eng):
        eng.bank.set_limit(eng.bank.nodes[0].byte_size + eng.bank.nodes[1].byte_size)

    _, restored, prefills = _restore_against_reference(tmp_path, 1e15, prepare=limit)
    assert restored == [0, 1] and len(prefills) == 1
