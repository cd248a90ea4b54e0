"""Per-module instrumentation of percache and the per-layer metrics read
from its spans.

``instrument`` wraps the public functions of each module where callers look
them up: class attributes, plus the module globals that hold ``tokenize`` and
``deserialize_slice``. ``per_layer_metrics`` turns the spans of one traced
run into the metrics listed in ``PER_LAYER``; README.md says which
end-to-end metric and workload each one should move.
"""

from __future__ import annotations

import statistics

from percache import backend, engine, knowledge, qa, retrieval, scheduler, textcore

# (name, unit, better)
PER_LAYER = [
    ("textcore.embed.calls_per_query", "calls/query", "lower"),
    ("textcore.embed.ms_per_query", "ms", "lower"),
    ("textcore.tokenize.ms_per_query", "ms", "lower"),
    ("textcore.tokenize.bytes_per_query", "bytes", "lower"),
    ("retrieval.retrieve_top_k.p50_ms", "ms", "lower"),
    ("retrieval.retrieve_top_k.chunks_scored_per_call", "chunks", "lower"),
    ("qa.match.p50_ms", "ms", "lower"),
    ("qa.match.entries_scanned_per_call", "entries", "lower"),
    ("qa.insert.evictions", "count", "lower"),
    ("qa.refresh.ms_per_arrival", "ms", "lower"),
    ("qa.refresh.entries_checked", "count", "lower"),
    ("knowledge.ingest_text.ms_per_chunk", "ms", "lower"),
    ("knowledge.persist.ms", "ms", "lower"),
    ("knowledge.load.ms", "ms", "lower"),
    ("knowledge.match_prefix.p50_ms", "ms", "lower"),
    ("knowledge.match_prefix.slices_loaded_per_call", "slices", "higher"),
    ("knowledge.match_prefix.bytes_read_per_call", "bytes", "lower"),
    ("knowledge.slice_and_insert.p50_ms", "ms", "lower"),
    ("knowledge.slice_and_insert.bytes_written_per_call", "bytes", "lower"),
    ("knowledge.evict_to_fit.evictions", "count", "lower"),
    ("knowledge.breakeven_tokens_per_slice", "tokens", "lower"),
    ("knowledge.breakeven_tokens_per_slice_model", "tokens", "lower"),
    ("backend.prefill.p50_ms", "ms", "lower"),
    ("backend.prefill.tokens_per_call", "tokens", "lower"),
    ("backend.prefill.us_per_token", "us", "lower"),
    ("backend.decode_ids.us_per_token", "us", "lower"),
    ("backend.macs_per_query", "MAC", "lower"),
    ("backend.scripted.miss_count", "count", "lower"),
    ("predictor.parse_failures", "count", "lower"),
    ("scheduler.idle_tick.p50_ms", "ms", "lower"),
    ("scheduler.populated_per_tick", "entries", "higher"),
    ("scheduler.restore.useful_ratio", "ratio", "higher"),
    ("scheduler.population.useful_ratio", "ratio", "higher"),
    ("engine.handle_query.self_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

SERVE_KINDS = ("query_arrival", "idle_tick")


def _macs(args):
    return args[0].mac_count


def _prefill_tokens(args, result, macs0):
    total = len(args[1])
    prefix = args[2] if len(args) > 2 else None
    pre = prefix.prefix_token_count if prefix is not None else 0
    return {"tokens": total - min(pre, total - 1), "macs": args[0].mac_count - macs0}


def instrument(tracer) -> None:
    Engine, Bank = engine.Engine, knowledge.KnowledgeBank
    tracer.patch(Engine, "apply_event", "engine.apply_event",
                 after=lambda a, r, p: {"kind": r["kind"]})
    tracer.patch(Engine, "handle_query", "engine.handle_query")
    tracer.patch(Engine, "restore_evicted_slices", "scheduler.restore",
                 after=lambda a, r, p: {"restored": len(r[0])})
    tracer.patch(Engine, "populate_predicted", "scheduler.populate",
                 after=lambda a, r, p: {"query": a[1], "populated": r is not None})
    tracer.patch(scheduler.Scheduler, "idle_tick", "scheduler.idle_tick",
                 after=lambda a, r, p: {"populated": r.populated})
    tracer.patch(textcore.HashEmbedder, "embed", "textcore.embed")
    tracer.patch([textcore, engine, knowledge], "tokenize", "textcore.tokenize",
                 after=lambda a, r, p: {"bytes": len(a[0].encode("utf-8"))})
    tracer.patch(retrieval.Retriever, "retrieve_top_k", "retrieval.retrieve_top_k",
                 after=lambda a, r, p: {"scored": len(a[0])})
    tracer.patch(qa.QaBank, "match", "qa.match",
                 after=lambda a, r, p: {"scanned": len(a[0].entries),
                                        "hit": r[0].query if r[0] is not None else None})
    tracer.patch(qa.QaBank, "insert", "qa.insert", after=lambda a, r, p: {"evictions": len(r)})
    tracer.patch(qa.QaBank, "refresh", "qa.refresh",
                 before=lambda a: sum(1 for e in a[0].entries if e.answer is not None and not e.stale),
                 after=lambda a, r, checked: {"checked": checked, "marked": len(r)})
    tracer.patch(Bank, "ingest_text", "knowledge.ingest_text", after=lambda a, r, p: {"chunks": len(r)})
    tracer.patch(Bank, "persist", "knowledge.persist")
    tracer.patch(Bank, "load", "knowledge.load")
    tracer.patch(Bank, "match_prefix", "knowledge.match_prefix",
                 after=lambda a, r, p: {"loaded": r[1] + 1 if r[0] is not None else 0})
    tracer.patch(knowledge, "deserialize_slice", "knowledge.deserialize_slice",
                 after=lambda a, r, p: {"bytes": len(a[0])})
    tracer.patch(Bank, "slice_and_insert", "knowledge.slice_and_insert",
                 after=lambda a, r, p: {"written": sum(a[0].nodes[i].byte_size for i in r)})
    tracer.patch(Bank, "evict_to_fit", "knowledge.evict_to_fit", after=lambda a, r, p: {"evictions": len(r)})
    tracer.patch(backend.ToyModel, "prefill", "backend.prefill", before=_macs, after=_prefill_tokens)
    tracer.patch(backend.ToyModel, "decode_ids", "backend.decode_ids", before=_macs,
                 after=lambda a, r, m0: {"tokens": len(r), "macs": a[0].mac_count - m0})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50_ms(spans) -> float:
    return statistics.median(s.ns for s in spans) / 1e6 if spans else 0.0


def _sum(spans, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans)


def _under(span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def per_layer_metrics(tracer, eng, records: list[dict], overhead_pct: float) -> dict:
    """Per-layer metrics of one traced replay. *_per_query metrics count the
    work done while serving queries and running idle ticks, divided by the
    queries served."""
    by_name: dict[str, list] = {}
    serve: dict[str, list] = {}
    on_query: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
        kind = span.root.attrs.get("kind")
        if kind in SERVE_KINDS and span is not span.root:
            serve.setdefault(span.name, []).append(span)
        if kind == "query_arrival":
            on_query.setdefault(span.name, []).append(span)
    get = lambda name: by_name.get(name, [])
    queries = sum(1 for r in records if r["kind"] == "query_arrival")
    arrivals = sum(1 for r in records if r["kind"] == "chunk_arrival")

    embed, tok = serve.get("textcore.embed", []), serve.get("textcore.tokenize", [])
    model_spans = serve.get("backend.prefill", []) + serve.get("backend.decode_ids", [])
    matches = get("knowledge.match_prefix")
    read = [s for s in get("knowledge.deserialize_slice") if s.parent is not None
            and s.parent.name == "knowledge.match_prefix"]
    inserts = get("knowledge.slice_and_insert")
    prefills, decodes = get("backend.prefill"), get("backend.decode_ids")
    ticks = get("scheduler.idle_tick")
    restores = get("scheduler.restore")
    ingests = get("knowledge.ingest_text")

    # break-even: measured ms per loaded slice over measured prefill ms per
    # token, both on the serving path; the model side uses the cost model's
    # fixed slice-load charge and the modeled prefill cost of the same misses
    q_match, q_prefill = on_query.get("knowledge.match_prefix", []), on_query.get("backend.prefill", [])
    slice_ms = _ratio(sum(s.ns for s in q_match) / 1e6, _sum(q_match, "loaded"))
    token_ms = _ratio(sum(s.ns for s in q_prefill) / 1e6, _sum(q_prefill, "tokens"))
    params = eng.cost_model.params
    misses = [r for r in records if r["kind"] == "query_arrival" and r["path"] != "qa_hit"]
    model_token_ms = _ratio(sum(r["prefill_flops"] for r in misses) / params.flops_per_ms,
                            sum(r["l_total"] - r["l_pre"] for r in misses))

    populated = [s for s in get("scheduler.populate") if s.attrs.get("populated")]
    hits = [s for s in on_query.get("qa.match", []) if s.attrs.get("hit")]
    useful = sum(1 for p in populated
                 if any(h.attrs["hit"] == p.attrs["query"] and h.start > p.end for h in hits))
    restore_prefills = sum(1 for s in prefills if _under(s, "scheduler.restore"))
    handle = get("engine.handle_query")

    values = {
        "textcore.embed.calls_per_query": _ratio(len(embed), queries),
        "textcore.embed.ms_per_query": _ratio(sum(s.ns for s in embed) / 1e6, queries),
        "textcore.tokenize.ms_per_query": _ratio(sum(s.ns for s in tok) / 1e6, queries),
        "textcore.tokenize.bytes_per_query": _ratio(_sum(tok, "bytes"), queries),
        "retrieval.retrieve_top_k.p50_ms": _p50_ms(get("retrieval.retrieve_top_k")),
        "retrieval.retrieve_top_k.chunks_scored_per_call": _ratio(
            _sum(get("retrieval.retrieve_top_k"), "scored"), len(get("retrieval.retrieve_top_k"))),
        "qa.match.p50_ms": _p50_ms(get("qa.match")),
        "qa.match.entries_scanned_per_call": _ratio(_sum(get("qa.match"), "scanned"), len(get("qa.match"))),
        "qa.insert.evictions": _sum(get("qa.insert"), "evictions"),
        "qa.refresh.ms_per_arrival": _ratio(sum(s.ns for s in get("qa.refresh")) / 1e6, arrivals),
        "qa.refresh.entries_checked": _sum(get("qa.refresh"), "checked"),
        "knowledge.ingest_text.ms_per_chunk": _ratio(sum(s.ns for s in ingests) / 1e6, _sum(ingests, "chunks")),
        "knowledge.persist.ms": sum(s.ns for s in get("knowledge.persist")) / 1e6,
        "knowledge.load.ms": sum(s.ns for s in get("knowledge.load")) / 1e6,
        "knowledge.match_prefix.p50_ms": _p50_ms(matches),
        "knowledge.match_prefix.slices_loaded_per_call": _ratio(_sum(matches, "loaded"), len(matches)),
        "knowledge.match_prefix.bytes_read_per_call": _ratio(_sum(read, "bytes"), len(matches)),
        "knowledge.slice_and_insert.p50_ms": _p50_ms(inserts),
        "knowledge.slice_and_insert.bytes_written_per_call": _ratio(_sum(inserts, "written"), len(inserts)),
        "knowledge.evict_to_fit.evictions": _sum(get("knowledge.evict_to_fit"), "evictions"),
        "knowledge.breakeven_tokens_per_slice": _ratio(slice_ms, token_ms),
        "knowledge.breakeven_tokens_per_slice_model": _ratio(
            params.latency_scale * params.qkv_load_ms, model_token_ms),
        "backend.prefill.p50_ms": _p50_ms(prefills),
        "backend.prefill.tokens_per_call": _ratio(_sum(prefills, "tokens"), len(prefills)),
        "backend.prefill.us_per_token": _ratio(sum(s.ns for s in prefills) / 1e3, _sum(prefills, "tokens")),
        "backend.decode_ids.us_per_token": _ratio(sum(s.ns for s in decodes) / 1e3, _sum(decodes, "tokens")),
        "backend.macs_per_query": _ratio(_sum(model_spans, "macs"), queries),
        "backend.scripted.miss_count": getattr(eng.text_backend, "miss_count", 0),
        "predictor.parse_failures": eng.predictor.parse_failures,
        "scheduler.idle_tick.p50_ms": _p50_ms(ticks),
        "scheduler.populated_per_tick": _ratio(_sum(ticks, "populated"), len(ticks)),
        "scheduler.restore.useful_ratio": _ratio(_sum(restores, "restored"), restore_prefills),
        "scheduler.population.useful_ratio": _ratio(useful, len(populated)),
        "engine.handle_query.self_ms": _ratio(sum(s.self_ns for s in handle) / 1e6, len(handle)),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in PER_LAYER}
