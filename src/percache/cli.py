"""Command-line frontend: corpus ingestion, trace replay, report emission.

Exit codes: 0 success, 1 usage error, 2 data error. All runs with fixed
inputs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .config import ConfigError, EngineConfig
from .engine import QA_HIT, QKV_PARTIAL, Engine, TraceError, open_bank
from .knowledge import BankError, encodes_utf8, is_number, read_jsonl, read_utf8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# frozen column order for the per-query replay report
CSV_COLUMNS = [
    "at",
    "text",
    "path",
    "best_similarity",
    "matched_count",
    "l_pre",
    "l_total",
    "prefill_flops",
    "decode_flops",
    "total_ms",
]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config(path: str | None) -> EngineConfig:
    if path is None:
        return EngineConfig()
    return EngineConfig.from_file(path)


def _cannot_write(path, exc: OSError) -> int:
    print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_DATA


def cmd_ingest(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_file():
        print(f"corpus file not readable: {corpus}", file=sys.stderr)
        return EXIT_DATA
    try:
        config = _load_config(args.config)
        text = read_utf8(corpus)
        bank = open_bank(config, args.bank)
    except (BankError, ConfigError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA
    chunks = bank.ingest_text(text)
    try:
        bank.persist()
    except OSError as exc:
        return _cannot_write(args.bank, exc)
    print(f"{len(chunks)} chunks")
    return EXIT_OK


def _write_reports(engine: Engine, args) -> bool:
    """Write the per-query CSV and the metrics JSONL of the events replayed
    so far; False, having named the path, when one cannot be written."""
    out = path = Path(args.out)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            for record in engine.metrics:
                if record["kind"] == "query_arrival":
                    writer.writerow(record)
        path = Path(args.metrics) if args.metrics else out.with_suffix(".jsonl")
        engine.write_metrics(path)
    except OSError as exc:
        _cannot_write(path, exc)
        return False
    return True


def cmd_replay(args) -> int:
    trace_path = Path(args.trace)
    if not trace_path.is_file():
        print(f"trace file not readable: {trace_path}", file=sys.stderr)
        return EXIT_DATA
    try:
        config = _load_config(args.config)
        events = read_jsonl(trace_path)
        engine = Engine(config, args.bank)
    except (BankError, ConfigError, TraceError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA
    failed = False
    try:
        for lineno, event in events:
            try:
                engine.apply_event(event)
            except (TraceError, ConfigError) as exc:
                print(f"{trace_path}:{lineno}: {exc}", file=sys.stderr)
                failed = True
                break
    finally:
        reported = _write_reports(engine, args)
    if failed or not reported:
        return EXIT_DATA
    if args.persist:
        try:
            engine.persist()
        except OSError as exc:
            return _cannot_write(args.bank, exc)
    queries = [r for r in engine.metrics if r["kind"] == "query_arrival"]
    hits = sum(1 for r in queries if r["path"] == QA_HIT)
    flops = sum(r.get("prefill_flops", 0) + r.get("decode_flops", 0) + r.get("flops_spent", 0)
                for r in engine.metrics)
    print(f"{len(queries)} queries, {hits} qa hits, total flops {flops:.0f}")
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.metrics)
    if not path.is_file():
        print(f"metrics file not readable: {path}", file=sys.stderr)
        return EXIT_DATA
    try:
        lines = read_jsonl(path)
    except (BankError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DATA
    records = [record for _, record in lines]
    queries = []
    for lineno, r in lines:
        # a string the report prints must encode, or print would fail mid-output
        bad = [key for key in ("at", "path", "qa_used_bytes", "qkv_used_bytes")
               if isinstance(r.get(key), str) and not encodes_utf8(r[key])]
        if bad:
            print(f"{path}:{lineno}: {bad[0]!r} is a string UTF-8 cannot encode", file=sys.stderr)
            return EXIT_DATA
        if r.get("kind") != "query_arrival":
            continue
        if not (isinstance(r.get("path"), str) and is_number(r.get("total_ms"))):
            print(f"{path}:{lineno}: query_arrival needs a string path and a numeric total_ms",
                  file=sys.stderr)
            return EXIT_DATA
        queries.append(r)
    by_path: dict[str, list[dict]] = {}
    for r in queries:
        by_path.setdefault(r["path"], []).append(r)
    qa_hit_rate = len(by_path.get(QA_HIT, [])) / len(queries) if queries else 0.0
    qkv_hit_rate = len(by_path.get(QKV_PARTIAL, [])) / len(queries) if queries else 0.0
    rows = [("queries", len(queries)), ("qa_hit_rate", f"{qa_hit_rate:.4f}"),
            ("qkv_hit_rate", f"{qkv_hit_rate:.4f}")]
    for pathname in sorted(by_path):
        rs = by_path[pathname]
        mean_ms = sum(r["total_ms"] for r in rs) / len(rs)
        rows.append((f"mean_ms[{pathname}]", f"{mean_ms:.3f}"))
    if records:
        rows.append(("final_qa_used_bytes", records[-1].get("qa_used_bytes", 0)))
        rows.append(("final_qkv_used_bytes", records[-1].get("qkv_used_bytes", 0)))
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["metric", "value"])
        for key, value in rows:
            writer.writerow([key, value])
    else:
        for key, value in rows:
            print(f"{key}: {value}")
        print("storage over time (at, qa_used_bytes, qkv_used_bytes):")
        for r in records:
            print(f"  {r.get('at')}\t{r.get('qa_used_bytes', 0)}\t{r.get('qkv_used_bytes', 0)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="percache", description="Predictive cache engine for RAG pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="chunk a corpus into a bank directory")
    p_ingest.add_argument("--corpus", required=True)
    p_ingest.add_argument("--bank", required=True)
    p_ingest.add_argument("--config", default=None)
    p_ingest.set_defaults(func=cmd_ingest)

    p_replay = sub.add_parser("replay", help="run a trace through the engine")
    p_replay.add_argument("--trace", required=True)
    p_replay.add_argument("--bank", required=True)
    p_replay.add_argument("--config", default=None)
    p_replay.add_argument("--out", required=True, help="per-query report CSV")
    p_replay.add_argument("--metrics", default=None, help="metrics JSONL (default: out with .jsonl)")
    p_replay.add_argument("--persist", action="store_true", help="persist caches after the run")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="summarize a metrics file")
    p_report.add_argument("--metrics", required=True)
    p_report.add_argument("--csv", action="store_true")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
