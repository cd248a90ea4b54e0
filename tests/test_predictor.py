import pytest

from percache.config import EngineConfig
from percache.predictor import (
    TEMPLATE_HISTORY,
    TEMPLATE_KNOWLEDGE,
    TEMPLATE_SUMMARIZE,
    PhaseError,
    Predictor,
    parse_numbered_list,
)


class FakeBackend:
    """Returns queued responses per template; records every call."""

    def __init__(self, responses=None):
        self.responses = responses or {}
        self.calls = []

    def generate(self, template, slots):
        self.calls.append((template, dict(slots)))
        queue = self.responses.get(template, [])
        return queue.pop(0) if queue else ""


# -- parser -------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1. What is due?; 2. When is it?; 3. Who owns it?",
         ["What is due?", "When is it?", "Who owns it?"]),
        ("1) 'Quoted question?'; 2. plain?", ["Quoted question?", "plain?"]),
        ("no markers here?", ["no markers here?"]),
        ("1. missing mark; 2. kept?", ["kept?"]),
        ("", []),
        ("garbage;;; ;", []),
        ("1. ?", []),  # bare question mark is not a question
    ],
)
def test_parse_numbered_list(text, expected):
    assert parse_numbered_list(text) == expected


def test_parse_is_total_on_arbitrary_text():
    for junk in ("\n\n", "; " * 50, "1. a? 2. b?", "🙂; 1. ok?"):
        assert isinstance(parse_numbered_list(junk), list)


# -- buffer -------------------------------------------------------------------


def _predictor(backend, **kw):
    defaults = dict(prediction_stride=3, t_batch=10, t_quiet=10)
    return Predictor(backend, EngineConfig(**(defaults | kw)))


def test_query_buffer_ring():
    # the buffer keeps the last EngineConfig.buffer_size (20) queries
    be = FakeBackend({TEMPLATE_HISTORY: ["1. next?"]})
    p = _predictor(be)
    for i in range(25):
        p.note_user_query(f"q{i}", i)
    kept = [f"q{i}" for i in range(5, 25)]
    assert list(p.buffer) == kept
    p.predict_from_history(34, lambda q: False)
    assert be.calls[0][1]["history"] == "; ".join(kept)


# -- abstract maintenance ------------------------------------------------------


def test_update_abstract_no_chunks_noop():
    p = _predictor(FakeBackend())
    assert p.update_abstract(0) is False
    assert p.abstract == []


def test_update_abstract_appends_with_sources():
    be = FakeBackend({TEMPLATE_SUMMARIZE: ["Summary one.", "Summary two."]})
    p = _predictor(be)
    p.note_chunks(["t1", "t2"], at=0)
    assert p.update_abstract(100)
    assert p.abstract == ["Summary one."]
    p.note_chunks(["t3"], at=100)
    assert p.update_abstract(200)
    assert " ".join(p.abstract) == "Summary one. Summary two."
    # each batch summarizes only the chunks noted since the last one
    assert [slots["chunks"] for _, slots in be.calls] == ["t1 t2", "t3"]


def test_update_abstract_miss_requeues():
    be = FakeBackend({TEMPLATE_SUMMARIZE: ["", "Recovered."]})
    p = _predictor(be)
    p.note_chunks(["t1"], at=0)
    assert p.update_abstract(50) is False
    assert p.abstract == []
    # the missed batch stays pending, and a chunk noted after the miss is
    # summarized after it
    p.note_chunks(["t2"], at=55)
    assert p.update_abstract(70) is True
    assert p.abstract == ["Recovered."]
    assert be.calls[-1] == (TEMPLATE_SUMMARIZE, {"chunks": "t1 t2"})
    assert p.update_abstract(100) is False and len(be.calls) == 2


CAP = EngineConfig.abstract_cap_bytes  # 4096


def test_update_abstract_cap_resummarizes_once():
    long = "x" * CAP
    be = FakeBackend({TEMPLATE_SUMMARIZE: [long, "short merge."]})
    p = _predictor(be)
    p.abstract = ["existing sentence."]
    p.note_chunks(["t"], at=0)
    assert p.update_abstract(10)
    # exactly two backend calls: the batch summary plus one re-summarize
    assert [t for t, _ in be.calls] == [TEMPLATE_SUMMARIZE, TEMPLATE_SUMMARIZE]
    assert p.abstract == ["short merge."]


def test_update_abstract_cap_truncates_as_last_resort():
    long = "y" * (CAP + 1)
    be = FakeBackend({TEMPLATE_SUMMARIZE: [long, "z" * (CAP + 1)]})
    p = _predictor(be)
    p.note_chunks(["t"], at=0)
    assert p.update_abstract(10)
    assert p.abstract == ["z" * (CAP - 1)]


def test_update_abstract_empty_resummary_cuts_once():
    # two sentences over the cap and an empty re-summarize: the joined text
    # is cut once to cap - 1 bytes, and the "é" straddling the cut is dropped
    # "é" is bytes cap - 2 and cap - 1 (0-based) of the joined text
    first = "a" * (CAP // 2 - 1) + "."
    second = "b" * (CAP // 2 - 3) + "é" + "c" * 21
    be = FakeBackend({TEMPLATE_SUMMARIZE: [first, second, ""]})
    p = _predictor(be)
    for at in (0, 20):
        p.note_chunks(["t"], at=at)
        assert p.update_abstract(at + 10)
    assert p.abstract == [first + " " + "b" * (CAP // 2 - 3)]
    assert len(be.calls) == 3


# -- triggers -----------------------------------------------------------------


def test_update_abstract_waits_for_t_batch():
    be = FakeBackend({TEMPLATE_SUMMARIZE: ["Summary."]})
    p = _predictor(be, t_batch=10)
    p.note_chunks(["t"], at=5)
    assert p.update_abstract(14) is False and be.calls == []
    assert p.update_abstract(15) is True and p.abstract == ["Summary."]


def test_predict_from_history_waits_for_t_quiet():
    # once per burst of user queries, after t_quiet passed with none
    be = FakeBackend({TEMPLATE_HISTORY: ["1. A?", "1. B?"]})
    p = _predictor(be, t_quiet=10)
    p.note_user_query("q", at=5)
    assert p.predict_from_history(14, lambda q: False) == () and be.calls == []
    assert p.predict_from_history(15, lambda q: False) == ("A?",)
    assert p.predict_from_history(100, lambda q: False) == () and len(be.calls) == 1
    p.note_user_query("r", at=100)
    assert p.predict_from_history(110, lambda q: False) == ("B?",)
    assert be.calls[-1][1]["history"] == "q; r"


# -- prediction views -----------------------------------------------------------


def test_predict_from_knowledge_stride_cap():
    resp = "; ".join(f"{i}. Question {i}?" for i in range(1, 8))
    be = FakeBackend({TEMPLATE_KNOWLEDGE: [resp]})
    p = _predictor(be, prediction_stride=3)
    p.abstract = ["summary."]
    assert p.predict_from_knowledge() == ("Question 1?", "Question 2?", "Question 3?")
    assert be.calls[0][1]["stride"] == "3"


def test_predict_from_knowledge_requires_abstract():
    be = FakeBackend({TEMPLATE_KNOWLEDGE: ["1. Next?"]})
    p = _predictor(be)
    assert p.predict_from_knowledge() == () and be.calls == []


def test_predict_parse_failure_counted():
    be = FakeBackend({TEMPLATE_KNOWLEDGE: ["no questions in this response"]})
    p = _predictor(be)
    p.abstract = ["summary."]
    assert p.predict_from_knowledge() == () and p.parse_failures == 1


def test_predict_from_history_filters_known():
    resp = "1. A?; 2. B?; 3. C?; 4. D?; 5. E?"
    be = FakeBackend({TEMPLATE_HISTORY: [resp]})
    p = _predictor(be, prediction_stride=5)
    p.note_user_query("earlier question", at=0)
    assert p.predict_from_history(10, known_query=lambda q: q == "B?") == ("A?", "C?", "D?", "E?")


def test_predict_from_history_requires_buffer():
    be = FakeBackend({TEMPLATE_HISTORY: ["1. Next?"]})
    p = _predictor(be)
    assert p.predict_from_history(100, lambda q: False) == () and be.calls == []


def test_phase_error_on_serving_path():
    p = _predictor(FakeBackend())
    p.note_chunks(["t"], at=0)
    p.abstract = ["s."]
    p.note_user_query("q", at=0)
    p.phase = "serve"
    with pytest.raises(PhaseError):
        p.update_abstract(100)
    with pytest.raises(PhaseError):
        p.predict_from_knowledge()
    with pytest.raises(PhaseError):
        p.predict_from_history(100, lambda q: False)
