#!/usr/bin/env python3
"""percache benchmark: replay one seeded synthetic workload through the
public Engine and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload qa_repeat --seed 1 --seconds 30 --trace 0

The replay is a closed loop: one client, one process, one thread, each event
sent after the previous one returns. The trace depends on the seed alone;
``--seconds`` sets how many times it is replayed.

``--trace 0`` sets an engine up from an empty bank directory once more than
it replays the trace (``workloads.repeats``: as many replays as fit in
``--seconds``, at least three). The first engine gets one throwaway warm-up
query and later serves as the cache-free reference. Each of the others
replays the trace under a wall clock. Every set-up and every event is timed
between two runs of the host-speed probe (``probe.py``) and rescaled to the
probe's reference speed; an event is charged the median of its replays.
Then the reference replays the trace with the QA bank, prefix reuse and the
scheduler turned off, and every query the QA bank did not serve must get the
same answer. The replays must also write byte-identical metrics streams. It
prints the end-to-end metrics, and the raw wall-clock figures beside them.

``--trace 1`` replays the trace untraced and then traced, with every percache
module wrapped by the outside-in tracer, checks that both metrics streams are
byte-identical and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Bank directories live in a
temporary directory under ``.perfbench`` that is removed at the end; each
result, and the spans of a traced run, are written to ``.perfbench/results``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
CACHE_TOGGLES = ("qa_enabled", "reuse_enabled", "scheduler_enabled")

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("qa_hit_p50_ms", "ms", "lower"),
    ("qa_hit_p90_ms", "ms", "lower"),
    ("miss_p50_ms", "ms", "lower"),
    ("miss_p90_ms", "ms", "lower"),
    ("replay_qps", "queries/s", "higher"),
    ("idle_tick_ms", "ms", "lower"),
    ("chunk_arrival_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("qa_hit_rate", "ratio", "higher"),
    ("prefix_token_share", "ratio", "higher"),
    ("modeled_ms_per_query", "model-ms", "lower"),
    ("ok_ops_share", "ratio", "higher"),
]


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; nothing is printed on stdout."""


def _import_percache():
    # pin BLAS/OpenMP pools to one thread before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import percache
    except ImportError as exc:
        raise BenchError(f"cannot import percache from {ROOT / 'src'}: {exc}") from exc
    if Path(percache.__file__).resolve().parent != ROOT / "src" / "percache":
        raise BenchError(f"percache imported from {percache.__file__}, not from this checkout")


@dataclass
class Replay:
    records: list = field(default_factory=list)  # metrics record per event, None if it raised
    ms: list = field(default_factory=list)  # apply_event wall time per event, rescaled
    raw_ms: list = field(default_factory=list)  # the same, as read from the clock
    probe_ms: list = field(default_factory=list)  # probe before the first event and after each
    errors: dict = field(default_factory=dict)  # event index -> failure

    def samples(self, events, kind: str, hit: bool | None = None) -> list[float]:
        """Times in ms of the events of one kind that succeeded; for
        queries, only QA hits (hit=True) or only misses (hit=False)."""
        out = []
        for event, record, ms in zip(events, self.records, self.ms):
            if event["kind"] != kind or record is None:
                continue
            if hit is not None and (record["path"] == "qa_hit") != hit:
                continue
            out.append(ms)
        return out


def replay(eng, events, probe) -> Replay:
    out = Replay()
    gc.collect()
    before = probe.measure()
    out.probe_ms.append(before)
    for index, event in enumerate(events):
        t0 = time.perf_counter_ns()
        try:
            record = eng.apply_event(event)
        except Exception:  # a failing event is counted and the replay goes on
            record = None
            out.errors[index] = traceback.format_exc(limit=3)
        ms = (time.perf_counter_ns() - t0) / 1e6
        after = probe.measure()
        out.raw_ms.append(ms)
        out.probe_ms.append(after)
        out.ms.append(ms * probe.scale(before, after))
        out.records.append(record)
        before = after
    return out


def setup(work: Path, index: int, n_chunks: int, probe):
    """Empty bank dir -> engine ready to serve, through `percache ingest`.
    Returns the engine and the set-up time in s, rescaled and raw."""
    from percache import cli
    from percache.config import EngineConfig
    from percache.engine import Engine

    bank = work / f"bank{index}"
    cfg = work / "workload.cfg"
    printed = io.StringIO()
    before = probe.measure()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["ingest", "--corpus", str(work / "corpus.txt"), "--bank", str(bank),
                         "--config", str(cfg)])
    eng = Engine(EngineConfig.from_file(cfg), bank)
    seconds = time.perf_counter() - t0
    scale = probe.scale(before, probe.measure())
    if code != 0 or printed.getvalue() != f"{n_chunks} chunks\n" or len(eng.bank.chunks) != n_chunks:
        raise BenchError(f"ingest of {n_chunks} chunks failed: exit {code}, {printed.getvalue()!r}")
    return eng, seconds * scale, seconds


def cache_free(eng):
    for toggle in CACHE_TOGGLES:
        eng.config.apply(toggle, "false")
    return eng


def reference_check(eng, events, timed: Replay) -> dict:
    """Replay on a cache-free engine and compare every answer the QA bank did
    not serve. Idle ticks and QA-served queries are skipped: with every cache
    off, neither can change the corpus, the config or a later answer."""
    failures = {}
    for index, (event, record) in enumerate(zip(events, timed.records)):
        kind = event["kind"]
        if record is None or kind == "idle_tick" or record.get("path") == "qa_hit":
            continue
        try:
            ref = eng.apply_event(event)
        except Exception:
            failures[index] = "cache-free replay raised:\n" + traceback.format_exc(limit=3)
            continue
        if kind == "query_arrival" and ref["answer"] != record["answer"]:
            failures[index] = f"answer {record['answer']!r} != cache-free {ref['answer']!r}"
        elif kind == "chunk_arrival" and ref["chunk_ids"] != record["chunk_ids"]:
            failures[index] = "chunk ids differ from the cache-free replay"
    return failures


def stream_diff(a: bytes, b: bytes, what: str) -> dict:
    """Event index -> failure for every metrics record that differs."""
    a_lines, b_lines = a.splitlines(), b.splitlines()
    return {
        index: f"metrics record differs from the {what}"
        for index in range(max(len(a_lines), len(b_lines)))
        if a_lines[index:index + 1] != b_lines[index:index + 1]
    }


def _p(values: list[float], pct: int) -> float:
    if len(values) < 2:
        raise BenchError(f"need at least two samples for p{pct}, got {len(values)}")
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def stream_shares(records: list[dict]) -> dict:
    """Deterministic shares read from the metrics stream."""
    queries = [r for r in records if r["kind"] == "query_arrival"]
    misses = [r for r in queries if r["path"] != "qa_hit"]
    return {
        "queries": len(queries),
        "qa_hit_rate": (len(queries) - len(misses)) / len(queries),
        "prefix_token_share": sum(r["l_pre"] for r in misses) / max(1, sum(r["l_total"] for r in misses)),
        "modeled_ms_per_query": statistics.fmean(r["total_ms"] for r in queries),
        "qa_entries_at_arrivals": [r["qa_entries"] for r in records if r["kind"] == "chunk_arrival"],
        "stale_marked": sum(len(r["stale_marked"]) for r in records if r["kind"] == "chunk_arrival"),
        "paths": {p: sum(1 for r in queries if r["path"] == p)
                  for p in ("qa_hit", "qkv_partial", "cold_miss")},
    }


def metrics_stream(eng, path: Path) -> bytes:
    eng.write_metrics(path)
    return path.read_bytes()


def timing_values(events, timed: Replay, setups: list[float]) -> dict:
    hits = timed.samples(events, "query_arrival", hit=True)
    misses = timed.samples(events, "query_arrival", hit=False)
    return {
        "setup_s": statistics.median(setups),
        "qa_hit_p50_ms": _p(hits, 50),
        "qa_hit_p90_ms": _p(hits, 90),
        "miss_p50_ms": _p(misses, 50),
        "miss_p90_ms": _p(misses, 90),
        "replay_qps": 1e3 * (len(hits) + len(misses)) / sum(timed.ms),
        "idle_tick_ms": statistics.fmean(timed.samples(events, "idle_tick")),
        "chunk_arrival_ms": statistics.fmean(timed.samples(events, "chunk_arrival")),
    }


def timed_run(wl, work: Path, report: dict, repeats: int) -> tuple[dict, int, int]:
    """End-to-end metrics. The trace is replayed ``repeats`` times, each on a
    freshly set-up engine doing identical deterministic work. Every time is
    rescaled by the host-speed probe around it, and every event is charged
    the median of its replays."""
    from probe import REFERENCE_MS, Probe

    probe = Probe()
    events, n_chunks = wl.events, len(wl.corpus)
    ref, seconds, raw_seconds = setup(work, 0, n_chunks, probe)
    setups, raw_setups = [seconds], [raw_seconds]
    cache_free(ref).apply_event(events[0])  # warm-up, on an engine that is never timed
    replays, streams = [], []
    for index in range(1, repeats + 1):
        eng, seconds, raw_seconds = setup(work, index, n_chunks, probe)
        setups.append(seconds)
        raw_setups.append(raw_seconds)
        replays.append(replay(eng, events, probe))
        streams.append(metrics_stream(eng, work / f"timed{index}.jsonl"))
        del eng
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = replays[0]
    failures = reference_check(ref, events, first)
    del ref
    for index, rp in enumerate(replays):
        failures.update(rp.errors)
        failures.update(stream_diff(streams[0], streams[index], "first replay"))
    timed = Replay(first.records, [statistics.median(ms) for ms in zip(*(rp.ms for rp in replays))])
    raw = Replay(first.records, [statistics.median(ms) for ms in zip(*(rp.raw_ms for rp in replays))])
    records = [r for r in timed.records if r is not None]

    shares = stream_shares(records)
    attempted, failed = len(events), len(failures)
    values = timing_values(events, timed, setups)
    values.update(
        peak_rss_mb=peak_rss_mb,
        qa_hit_rate=shares["qa_hit_rate"],
        prefix_token_share=shares["prefix_token_share"],
        modeled_ms_per_query=shares["modeled_ms_per_query"],
        ok_ops_share=(attempted - failed) / attempted,
    )
    report.update(
        setup_runs_s=setups,
        raw_setup_runs_s=raw_setups,
        raw_timings=timing_values(events, raw, raw_setups),
        probe_ms={"median": statistics.median(probe.ms), "min": min(probe.ms), "max": max(probe.ms),
                  "count": len(probe.ms), "reference": REFERENCE_MS},
        replay_wall_s=[sum(rp.raw_ms) / 1e3 for rp in replays],
        samples={name: len(timed.samples(events, kind, hit)) for name, kind, hit in
                 (("qa_hit", "query_arrival", True), ("miss", "query_arrival", False),
                  ("idle_tick", "idle_tick", None), ("chunk_arrival", "chunk_arrival", None))},
        event_ms=[rp.ms for rp in replays],
        raw_event_ms=[rp.raw_ms for rp in replays],
        probe_ms_per_event=[rp.probe_ms for rp in replays],
        shares=shares,
        failures={str(i): msg for i, msg in sorted(failures.items())},
    )
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit, _ in END_TO_END}
    return metrics, attempted, failed


def traced_run(wl, work: Path, report: dict, spans_path: Path) -> tuple[dict, int, int]:
    from layers import instrument, per_layer_metrics
    from probe import Probe
    from tracer import Tracer

    probe = Probe()
    events = wl.events
    eng, _, _ = setup(work, 1, len(wl.corpus), probe)
    eng.apply_event(next(e for e in events if e["kind"] == "query_arrival"))
    del eng
    eng, _, _ = setup(work, 2, len(wl.corpus), probe)
    plain = replay(eng, events, probe)
    plain_stream = metrics_stream(eng, work / "untraced.jsonl")
    del eng

    tracer = Tracer()
    instrument(tracer)
    try:
        with tracer.span("setup"):
            eng, _, _ = setup(work, 3, len(wl.corpus), probe)
        traced = replay(eng, events, probe)
    finally:
        tracer.unpatch()
    traced_stream = metrics_stream(eng, work / "traced.jsonl")
    tracer.write(spans_path)

    failures = stream_diff(plain_stream, traced_stream, "untraced replay")
    failures.update(plain.errors)
    failures.update(traced.errors)
    plain_miss = _p(plain.samples(events, "query_arrival", hit=False), 50)
    traced_miss = _p(traced.samples(events, "query_arrival", hit=False), 50)
    records = [r for r in traced.records if r is not None]
    metrics = per_layer_metrics(tracer, eng, records, 100.0 * (traced_miss / plain_miss - 1.0))
    report.update(
        untraced_miss_p50_ms=plain_miss,
        traced_miss_p50_ms=traced_miss,
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        shares=stream_shares(records),
        streams_identical=traced_stream == plain_stream,
        failures={str(i): msg for i, msg in sorted(failures.items())},
    )
    return metrics, len(events), len(failures)


def write_inputs(wl, work: Path) -> None:
    (work / "corpus.txt").write_text("\n".join(wl.corpus) + "\n", encoding="utf-8")
    (work / "vocab.txt").write_text("\n".join(wl.vocab) + "\n", encoding="utf-8")
    (work / "script.json").write_text(json.dumps(wl.script(), sort_keys=True), encoding="utf-8")
    (work / "workload.cfg").write_text(wl.config_text(), encoding="utf-8")


def check_declared(trace: bool, metrics: dict) -> None:
    """The metrics printed must be the ones BENCHMARK.json declares."""
    declared = ROOT / "BENCHMARK.json"
    if not declared.exists():
        return
    spec = json.loads(declared.read_text(encoding="utf-8"))
    want = [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]
    have = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(want) != sorted(have):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(have))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("qa_repeat", "prefix_reuse", "corpus_scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_percache()
        import numpy
        import workloads

        wl = workloads.build(args.workload, args.seed)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "events": len(wl.events),
            "chunks": len(wl.corpus),
            "designed_hit_share": wl.designed_hit_share,
        }
        try:
            write_inputs(wl, work)
            stem = f"{wl.name}-seed{args.seed}"
            if args.trace:
                metrics, attempted, failed = traced_run(wl, work, report, results / f"spans-{stem}.jsonl")
            else:
                metrics, attempted, failed = timed_run(wl, work, report, workloads.repeats(wl.name, args.seconds))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        check_declared(bool(args.trace), metrics)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report["result"] = result
    (results / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shares = report["shares"]
    print(f"percache benchmark: workload {wl.name}, seed {args.seed}, trace {args.trace}, "
          f"{len(wl.corpus)} chunks, {len(wl.events)} events")
    print(f"environment: python {report['python']}, numpy {report['numpy']}, nproc {report['nproc']}, "
          "BLAS/OpenMP threads pinned to 1")
    print(f"measured shares: qa hits {shares['qa_hit_rate']:.4f} (designed {wl.designed_hit_share:.4f}), "
          f"prefix tokens {shares['prefix_token_share']:.4f}, paths {shares['paths']}, "
          f"QA entries at each arrival {shares['qa_entries_at_arrivals']}, stale marked {shares['stale_marked']}")
    if "samples" in report:
        print(f"samples: {report['samples']}, setups {[round(s, 3) for s in report['setup_runs_s']]} s")
        probe_ms = report["probe_ms"]
        print(f"host-speed probe: median {probe_ms['median']:.4f} ms, range {probe_ms['min']:.4f}-"
              f"{probe_ms['max']:.4f} ms over {probe_ms['count']} runs; times below are rescaled to "
              f"{probe_ms['reference']} ms. Raw wall clock: "
              + ", ".join(f"{name} {value:.4f}" for name, value in report["raw_timings"].items()))
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:14.4f} {m['unit']}")
    print(f"failed_ops_share: {failed / attempted:.4f} ({failed} of {attempted} events)")
    for index, msg in report["failures"].items():
        print(f"  event {index}: {msg}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
