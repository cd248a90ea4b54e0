import pytest

from percache.predictor import (
    TEMPLATE_HISTORY,
    TEMPLATE_KNOWLEDGE,
    TEMPLATE_SUMMARIZE,
    KnowledgeAbstract,
    PhaseError,
    Predictor,
    parse_numbered_list,
)


class FakeChunk:
    def __init__(self, chunk_id, text):
        self.chunk_id = chunk_id
        self.text = text


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
    defaults = dict(stride=3, abstract_cap_bytes=4096, buffer_size=5, t_batch=10, t_quiet=10)
    defaults.update(kw)
    return Predictor(backend, **defaults)


def test_query_buffer_ring():
    be = FakeBackend({TEMPLATE_HISTORY: ["1. next?"]})
    p = _predictor(be, buffer_size=3)
    for i in range(5):
        p.note_user_query(f"q{i}", i)
    assert list(p.buffer) == ["q2", "q3", "q4"]
    p.predict_from_history(lambda q: False)
    assert be.calls[0][1]["history"] == "q2; q3; q4"
    with pytest.raises(ValueError):
        _predictor(FakeBackend(), buffer_size=0)


# -- abstract maintenance ------------------------------------------------------


def test_update_abstract_no_chunks_noop():
    p = _predictor(FakeBackend())
    assert p.update_abstract(0) is False
    assert p.abstract.sentences == []


def test_update_abstract_appends_with_sources():
    be = FakeBackend({TEMPLATE_SUMMARIZE: ["Summary one.", "Summary two."]})
    p = _predictor(be)
    p.note_chunks([FakeChunk("c1", "t1"), FakeChunk("c2", "t2")], at=0)
    assert p.update_abstract(100)
    assert p.abstract.sentences == ["Summary one."]
    p.note_chunks([FakeChunk("c3", "t3")], at=100)
    assert p.update_abstract(200)
    assert p.abstract.text == "Summary one. Summary two."
    # each batch summarizes only the chunks noted since the last one
    assert [slots["chunks"] for _, slots in be.calls] == ["t1 t2", "t3"]


def test_update_abstract_miss_requeues():
    be = FakeBackend({TEMPLATE_SUMMARIZE: ["", "Recovered."]})
    p = _predictor(be)
    p.note_chunks([FakeChunk("c1", "t1")], at=0)
    assert p.update_abstract(50) is False
    assert p.abstract.sentences == []
    assert p.batch_ready(50)  # the missed batch stays pending
    # a chunk noted after the miss is summarized after the missed batch
    p.note_chunks([FakeChunk("c2", "t2")], at=55)
    assert p.update_abstract(70) is True
    assert p.abstract.sentences == ["Recovered."]
    assert be.calls[-1] == (TEMPLATE_SUMMARIZE, {"chunks": "t1 t2"})
    assert not p.batch_ready(100)


def test_update_abstract_cap_resummarizes_once():
    long = "x" * 50
    be = FakeBackend({TEMPLATE_SUMMARIZE: [long, "short merge."]})
    p = _predictor(be, abstract_cap_bytes=40)
    p.abstract.sentences = ["existing sentence."]
    p.note_chunks([FakeChunk("c1", "t")], at=0)
    assert p.update_abstract(10)
    # exactly two backend calls: the batch summary plus one re-summarize
    assert [t for t, _ in be.calls] == [TEMPLATE_SUMMARIZE, TEMPLATE_SUMMARIZE]
    assert p.abstract.sentences == ["short merge."]
    assert p.abstract.byte_len <= 40


def test_update_abstract_cap_truncates_as_last_resort():
    long = "y" * 100
    be = FakeBackend({TEMPLATE_SUMMARIZE: [long, "z" * 100]})
    p = _predictor(be, abstract_cap_bytes=40)
    p.note_chunks([FakeChunk("c1", "t")], at=0)
    assert p.update_abstract(10)
    assert p.abstract.byte_len <= 40


def test_knowledge_ready_follows_abstract_updates():
    # ready after a successful update, not after a backend miss, and no
    # longer once the knowledge view has predicted from the new abstract
    be = FakeBackend({TEMPLATE_SUMMARIZE: ["", "Summary."], TEMPLATE_KNOWLEDGE: ["1. Next?"]})
    p = _predictor(be)
    p.note_chunks([FakeChunk("c1", "t1")], at=0)
    assert not p.knowledge_ready()
    assert p.update_abstract(50) is False
    assert not p.knowledge_ready()
    assert p.update_abstract(60) is True
    assert p.knowledge_ready()
    assert p.predict_from_knowledge() == ("Next?",)
    assert not p.knowledge_ready()


# -- triggers -----------------------------------------------------------------


def test_batch_ready_requires_quiet_period():
    p = _predictor(FakeBackend(), t_batch=10)
    assert not p.batch_ready(0)
    p.note_chunks([FakeChunk("c", "t")], at=5)
    assert not p.batch_ready(14)
    assert p.batch_ready(15)


def test_history_ready_requires_quiet_period():
    p = _predictor(FakeBackend(), t_quiet=10)
    assert not p.history_ready(0)
    p.note_user_query("q", at=5)
    assert not p.history_ready(14)
    assert p.history_ready(15)


# -- prediction views -----------------------------------------------------------


def test_predict_from_knowledge_stride_cap():
    resp = "; ".join(f"{i}. Question {i}?" for i in range(1, 8))
    be = FakeBackend({TEMPLATE_KNOWLEDGE: [resp]})
    p = _predictor(be, stride=3)
    p.abstract.sentences = ["summary."]
    assert p.predict_from_knowledge() == ("Question 1?", "Question 2?", "Question 3?")
    assert be.calls[0][1]["stride"] == "3"


def test_predict_from_knowledge_requires_abstract():
    p = _predictor(FakeBackend())
    with pytest.raises(ValueError):
        p.predict_from_knowledge()


def test_predict_parse_failure_counted():
    be = FakeBackend({TEMPLATE_KNOWLEDGE: ["no questions in this response"]})
    p = _predictor(be)
    p.abstract.sentences = ["summary."]
    assert p.predict_from_knowledge() == () and p.parse_failures == 1


def test_predict_from_history_filters_known():
    resp = "1. A?; 2. B?; 3. C?; 4. D?; 5. E?"
    be = FakeBackend({TEMPLATE_HISTORY: [resp]})
    p = _predictor(be, stride=5)
    p.note_user_query("earlier question", at=0)
    assert p.predict_from_history(known_query=lambda q: q == "B?") == ("A?", "C?", "D?", "E?")
    assert not p._history_dirty


def test_predict_from_history_requires_buffer():
    p = _predictor(FakeBackend())
    with pytest.raises(ValueError):
        p.predict_from_history(lambda q: False)


def test_phase_error_on_serving_path():
    p = _predictor(FakeBackend())
    p.note_chunks([FakeChunk("c", "t")], at=0)
    p.abstract.sentences = ["s."]
    p.note_user_query("q", at=0)
    p.phase = "serve"
    with pytest.raises(PhaseError):
        p.update_abstract(100)
    with pytest.raises(PhaseError):
        p.predict_from_knowledge()
    with pytest.raises(PhaseError):
        p.predict_from_history(lambda q: False)


def test_abstract_byte_len():
    a = KnowledgeAbstract(sentences=["ab", "cd"])
    assert a.text == "ab cd" and a.byte_len == 5
