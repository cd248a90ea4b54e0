"""perfbench/layers.py wraps percache functions by name; a rename here
would silently drop their spans from `perfbench/run.py --trace 1`. Replay
one bundled trace with the instrumentation on and check the spans that
the per-layer metrics read, and that tracing leaves the metrics stream
unchanged. perfbench/workloads.py builds its workloads with percache's
own Retriever and cosine_similarity, so their bytes are pinned too."""

import contextlib
import hashlib
import io
import json
import sys

from percache.cli import EXIT_OK, main
from percache.config import EngineConfig
from percache.engine import Engine
from percache.knowledge import read_jsonl

from conftest import DATA, REPO

sys.path.insert(0, str(REPO / "perfbench"))
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TRACE, CONFIG = "idle_work", "idle_work"

# SHA-256 of json.dumps([events, corpus, vocab], sort_keys=True) of each
# workload perfbench builds at seed 101
WORKLOAD_DIGESTS = {
    "qa_repeat": "22457f79554f6fe34d47dabff6dd1e9162d988ce41952cd371e9f45e61dee89d",
    "prefix_reuse": "279807cb40101491a20470f4e879b2ca5e61fc027b3ed869ce6f805a32bcefdf",
}

# every name perfbench patches that this replay reaches: all but
# knowledge.deserialize_slice, as the bank it opens holds no slice (a bank
# this replay persisted does: test_a_reopened_bank_reads_its_slices_in_load)
REACHED = (
    "engine.apply_event", "engine.handle_query", "scheduler.idle_tick", "scheduler.populate",
    "scheduler.restore", "textcore.embed", "textcore.tokenize", "retrieval.retrieve_top_k",
    "qa.match", "qa.insert", "qa.refresh", "knowledge.ingest_text", "knowledge.persist",
    "knowledge.load", "knowledge.match_prefix", "knowledge.slice_and_insert",
    "knowledge.evict_to_fit", "backend.prefill", "backend.decode_ids",
)


def replay(workdir, *extra) -> bytes:
    config = str(DATA / "configs" / f"{CONFIG}.cfg")
    bank, metrics = workdir / "bank", workdir / "metrics.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--corpus", str(DATA / "corpus.txt"), "--bank", str(bank),
                     "--config", config]) == EXIT_OK
        assert main(["replay", "--trace", str(DATA / "traces" / f"{TRACE}.trace"),
                     "--bank", str(bank), "--config", config, "--out", str(workdir / "out.csv"),
                     "--metrics", str(metrics), *extra]) == EXIT_OK
    return metrics.read_bytes()


def test_instrumented_names_record_spans(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = replay(tmp_path / "plain")
    t = tracer.Tracer()
    try:
        layers.instrument(t)
        traced = replay(tmp_path / "traced")
    finally:
        t.unpatch()
    names = {span.name for span in t.spans}
    for name in REACHED:
        assert name in names, f"no {name} span: perfbench patches a name that moved"
    # the per-layer metrics split spans by what they ran under
    for name, under in (("backend.prefill", "engine.handle_query"),
                        ("backend.prefill", "scheduler.restore"),
                        ("backend.prefill", "scheduler.populate"),
                        ("knowledge.match_prefix", "engine.handle_query"),
                        ("qa.match", "engine.handle_query"),
                        ("textcore.tokenize", "engine.handle_query")):
        assert any(s.name == name and layers._under(s, under) for s in t.spans), (name, under)
    # decode steps must not count as prefill calls in the backend.prefill.* metrics
    for span in t.spans:
        parent = span.parent if span.name == "backend.prefill" else None
        while parent is not None:
            assert parent.name != "backend.decode_ids", "decode_ids calls prefill"
            parent = parent.parent
    assert any(s.name == "scheduler.populate" and s.attrs["populated"] for s in t.spans)
    assert any(s.name == "scheduler.restore" and s.attrs["restored"] for s in t.spans)
    assert traced == plain


def test_per_layer_metrics_read_a_live_engine(tmp_path):
    # per_layer_metrics reads the engine's cost_model.params, its scripted
    # backend's miss_count and its predictor's parse_failures, and the
    # hooks read each written node's byte_size and QaBank.entries: renaming
    # any of them fails here, not only in `perfbench/run.py --trace 1`
    config = EngineConfig.from_file(DATA / "configs" / f"{CONFIG}.cfg")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--corpus", str(DATA / "corpus.txt"), "--bank", str(tmp_path),
                     "--config", str(DATA / "configs" / f"{CONFIG}.cfg")]) == EXIT_OK
    eng = Engine(config, tmp_path)
    events = [event for _, event in read_jsonl(DATA / "traces" / f"{TRACE}.trace")]
    t = tracer.Tracer()
    try:
        layers.instrument(t)
        records = [eng.apply_event(event) for event in events]
    finally:
        t.unpatch()
    metrics = layers.per_layer_metrics(t, eng, records, 0.0)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["backend.scripted.miss_count"] == eng.text_backend.miss_count
    assert values["predictor.parse_failures"] == eng.predictor.parse_failures
    for name in ("knowledge.breakeven_tokens_per_slice_model",
                 "knowledge.slice_and_insert.bytes_written_per_call",
                 "qa.match.entries_scanned_per_call", "qa.refresh.entries_checked"):
        assert values[name] > 0, name


def test_a_reopened_bank_reads_its_slices_in_load(tmp_path):
    replay(tmp_path, "--persist")
    (tmp_path / "empty.trace").write_text("", encoding="utf-8")
    t = tracer.Tracer()
    try:
        layers.instrument(t)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replay", "--trace", str(tmp_path / "empty.trace"),
                         "--bank", str(tmp_path / "bank"),
                         "--config", str(DATA / "configs" / f"{CONFIG}.cfg"),
                         "--out", str(tmp_path / "reopened.csv")]) == EXIT_OK
    finally:
        t.unpatch()
    reads = [s for s in t.spans if s.name == "knowledge.deserialize_slice"]
    assert reads and all(layers._under(s, "knowledge.load") for s in reads)


def test_benchmark_workloads_build_the_same_bytes():
    # the builders call Retriever(embedder, alpha=...), add_chunk and
    # retrieve_top_k, and read Embedding.values, cosine_similarity and
    # DEFAULT_ENTRY_BYTES; a change to any of them moves these digests
    for name, digest in WORKLOAD_DIGESTS.items():
        w = workloads.build(name, 101)
        got = hashlib.sha256(json.dumps([w.events, w.corpus, w.vocab], sort_keys=True).encode())
        assert got.hexdigest() == digest, name
