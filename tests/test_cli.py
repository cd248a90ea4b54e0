import csv
import json
import logging
import struct
from pathlib import Path

import numpy as np
import pytest

from percache.cli import CSV_COLUMNS, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from percache.config import EngineConfig
from percache.engine import Engine
from percache import knowledge
from percache.knowledge import deserialize_slice

from conftest import DATA


# EngineConfig constants, not keys: neither a config file nor a trace sets them
CONSTANTS = ("k_refresh", "alpha_fusion", "retrieval_k", "tau_scheduler", "buffer_size",
             "abstract_cap_bytes")


def run(argv):
    return main([str(a) for a in argv])


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def test_usage_errors_exit_1(capsys):
    assert run([]) == EXIT_USAGE
    assert run(["replay", "--trace", "t"]) == EXIT_USAGE  # missing required args
    assert run(["no-such-command"]) == EXIT_USAGE


def test_missing_files_exit_2(tmp_path, capsys):
    assert run(["ingest", "--corpus", tmp_path / "nope.txt", "--bank", tmp_path / "b"]) == EXIT_DATA
    assert run([
        "replay", "--trace", tmp_path / "nope.trace", "--bank", tmp_path / "b",
        "--out", tmp_path / "o.csv",
    ]) == EXIT_DATA
    assert run(["report", "--metrics", tmp_path / "nope.jsonl"]) == EXIT_DATA


def test_ingest_empty_corpus(tmp_path, capsys):
    corpus = _write(tmp_path / "c.txt", "")
    assert run(["ingest", "--corpus", corpus, "--bank", tmp_path / "bank"]) == EXIT_OK
    assert "0 chunks" in capsys.readouterr().out


def test_ingest_idempotent(tmp_path, capsys):
    corpus = _write(tmp_path / "c.txt", "alpha beta gamma delta")
    bank = tmp_path / "bank"
    assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_OK
    manifest_1 = (bank / "manifest.jsonl").read_bytes()
    chunks_1 = (bank / "chunks.jsonl").read_bytes()
    assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_OK
    assert (bank / "manifest.jsonl").read_bytes() == manifest_1
    assert (bank / "chunks.jsonl").read_bytes() == chunks_1
    assert "1 chunks" in capsys.readouterr().out


def test_ingest_non_utf8_corpus_exit_2(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_bytes(b"alpha beta\ngamma \xff delta\n")
    bank = tmp_path / "bank"
    assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{corpus}:2: not UTF-8" in err and "Traceback" not in err
    assert not bank.exists()


def test_replay_non_utf8_trace_exit_2(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_bytes(b'{"at": 0, "kind": "idle_tick"}\n{"at": 1, "kind": "query_arrival", '
                      b'"text": "caf\xe9"}\n')
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{trace}:2: not UTF-8" in err and "Traceback" not in err
    assert not out.exists()  # no event ran


def test_non_utf8_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "engine.cfg"
    cfg.write_bytes(b"tau_query=0.9\n# caf\xe9\n")
    trace = _write(tmp_path / "e.trace", "")
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--config", cfg,
                "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{cfg}:2: not UTF-8" in err and "Traceback" not in err
    assert not out.exists()


def test_non_utf8_bank_vocab_exit_2(tmp_path, capsys):
    bank = tmp_path / "bank"
    corpus = _write(tmp_path / "c.txt", "alpha beta gamma delta")
    assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_OK
    vocab = bank / "vocab.txt"
    lines = vocab.read_bytes().splitlines(keepends=True)
    vocab.write_bytes(lines[0] + lines[1] + b"caf\xe9\n" + b"".join(lines[2:]))
    capsys.readouterr()
    trace = _write(tmp_path / "e.trace", "")
    assert run(["replay", "--trace", trace, "--bank", bank, "--out", tmp_path / "o.csv"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{vocab}:3: not UTF-8" in err and "Traceback" not in err
    assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_DATA
    assert f"{vocab}:3: not UTF-8" in capsys.readouterr().err


def test_replay_empty_trace_header_only_csv(tmp_path, capsys):
    trace = _write(tmp_path / "e.trace", "")
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == [",".join(CSV_COLUMNS)]
    # default metrics path: out with .jsonl suffix
    assert (tmp_path / "out.jsonl").read_text(encoding="utf-8") == ""


def test_replay_malformed_trace_names_line(tmp_path, capsys):
    trace = _write(tmp_path / "bad.trace", '{"at": 0, "kind": "idle_tick"}\nnot json\n')
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{trace}:2" in err


def test_replay_bad_event_names_line(tmp_path, capsys):
    trace = _write(
        tmp_path / "bad.trace",
        '{"at": 0, "kind": "idle_tick"}\n{"at": 1, "kind": "wat"}\n',
    )
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    assert f"{trace}:2" in capsys.readouterr().err


@pytest.mark.parametrize("event", [
    {"at": 1, "kind": "config_change", "field": "tau_query", "value": 7},
    {"at": 1, "kind": "idle_tick", "budget": "lots"},
    {"at": 1, "kind": "query_arrival", "text": 5},
    {"at": 1, "kind": "chunk_arrival", "text": 5},
    {"at": 1, "kind": "config_change", "field": "model_layers", "value": 3},
    {"at": 1, "kind": "config_change", "field": "chunk_words", "value": 50},
    {"at": 1, "kind": "config_change", "field": ["tau_query"], "value": 0.5},
    {"at": 1, "kind": "config_change", "field": "qa_limit_bytes", "value": 100},
    # NaN compares false with everything: as a budget it would never run
    # out, as a time it would switch off the ordering check for the rest
    {"at": 1, "kind": "idle_tick", "budget": float("nan")},
    {"at": float("nan"), "kind": "idle_tick"},
    {"at": True, "kind": "idle_tick"},
    # config_change needs a JSON string, number or boolean value
    {"at": 1, "kind": "config_change", "field": "system_prompt", "value": None},
    {"at": 1, "kind": "config_change", "field": "system_prompt", "value": ["a"]},
    {"at": 1, "kind": "config_change", "field": "system_prompt"},
    # an empty system prompt and no chunk would leave no token to prefill
    {"at": 1, "kind": "query_arrival", "text": ""},
    # constants, not keys: every kept QA bar was ranked by k_refresh, for one
    *({"at": 1, "kind": "config_change", "field": key, "value": 2} for key in CONSTANTS),
])
def test_replay_bad_event_value_exit_2(tmp_path, capsys, event):
    trace = _write(
        tmp_path / "bad.trace", '{"at": 0, "kind": "idle_tick"}\n' + json.dumps(event) + "\n"
    )
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{trace}:2" in err
    if event.get("field") in CONSTANTS:
        assert "unknown config key" in err


@pytest.mark.parametrize("event", [
    {"at": 1, "kind": "query_arrival", "text": "budget \ud800 review"},
    {"at": 1, "kind": "chunk_arrival", "text": "budget \ud800 review"},
    {"at": 1, "kind": "config_change", "field": "system_prompt", "value": "Notes \ud800:\\n"},
], ids=["query", "chunk", "system_prompt"])
def test_text_with_a_lone_surrogate_exit_2(tmp_path, capsys, event):
    # JSON can escape a lone surrogate, which UTF-8 cannot encode: it would
    # reach the query's prompt, the chunk's hash or every later prompt. The
    # event is refused where it stands, before it changes anything
    trace = _write(tmp_path / "t.trace", "".join(json.dumps(e) + "\n" for e in (
        {"at": 0, "kind": "idle_tick"}, event,
        {"at": 2, "kind": "query_arrival", "text": "what is the budget?"})))
    assert "\\ud800" in trace.read_text(encoding="utf-8")
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{trace}:2: " in err and "UTF-8" in err and "Traceback" not in err
    metrics = out.with_suffix(".jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["kind"] for line in metrics] == ["idle_tick"]


def test_replay_bad_config_exit_2(tmp_path, capsys):
    trace = _write(tmp_path / "t.trace", "")
    # an unknown key, an out-of-range value, a QA budget below one entry,
    # the text backend selector, which no longer exists, an odd head
    # dimension, which rotary position pairs cannot split, a seed the model's
    # generator refuses, timers that would never fire or always fire, and
    # each constant, set to its own value
    for line in ("unknown_key=1", "tau_query=7", "qa_limit_bytes=100", "backend=toy",
                 "model_head_dim=3", "seed=-1", "t_quiet=nan", "t_batch=-1",
                 *(f"{key}={getattr(EngineConfig, key)}" for key in CONSTANTS)):
        cfg = _write(tmp_path / "c.cfg", line + "\n")
        assert run([
            "replay", "--trace", trace, "--bank", tmp_path / "b",
            "--config", cfg, "--out", tmp_path / "o.csv",
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{cfg}:1: " in err and "Traceback" not in err
        if line.partition("=")[0] in CONSTANTS:
            assert "unknown config key" in err


def test_replay_reruns_byte_identical(tmp_path, capsys):
    trace = DATA / "traces" / "monotonicity.trace"
    cfg = DATA / "configs" / "default.cfg"
    outputs = []
    for run_name in ("a", "b"):
        out = tmp_path / f"{run_name}.csv"
        code = run([
            "replay", "--trace", trace, "--bank", tmp_path / f"bank_{run_name}",
            "--config", cfg, "--out", out,
        ])
        assert code == EXIT_OK
        outputs.append((out.read_bytes(), out.with_suffix(".jsonl").read_bytes()))
    assert outputs[0] == outputs[1]
    with open(tmp_path / "a.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16  # one row per query event
    assert all(set(r) == set(CSV_COLUMNS) for r in rows)


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
def test_replay_unwritable_output_exit_2(tmp_path, capsys, flag):
    # the whole trace runs before the reports are written
    trace = _write(tmp_path / "t.trace", '{"at": 0, "kind": "idle_tick"}\n')
    paths = {"--out": tmp_path / "out.csv", "--metrics": tmp_path / "m.jsonl"}
    paths[flag] = tmp_path / "missing" / paths[flag].name
    argv = ["replay", "--trace", trace, "--bank", tmp_path / "b"]
    for key, path in paths.items():
        argv += [key, path]
    assert run(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert f"cannot write {paths[flag]}: " in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_replay_trace_error_and_unwritable_output_exit_2(tmp_path, capsys):
    # the output failure adds its message to the trace's; neither is lost
    trace = _write(tmp_path / "bad.trace", '{"at": 0, "kind": "idle_tick"}\n{"at": 1, "kind": "wat"}\n')
    out = tmp_path / "missing" / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{trace}:2: " in err and f"cannot write {out}: " in err


INGEST = ["ingest", "--corpus", "c.txt"]
REPLAY = ["replay", "--trace", "t.trace", "--out", "out.csv"]


@pytest.mark.parametrize("argv, below", [
    (INGEST, False), (REPLAY, False), (REPLAY + ["--persist"], False),
    (INGEST, True), (REPLAY, True), (REPLAY + ["--persist"], True),
], ids=["ingest", "replay", "replay-persist",
        "ingest-below-file", "replay-below-file", "replay-persist-below-file"])
def test_bank_that_is_a_file_exit_2_at_open(tmp_path, capsys, monkeypatch, argv, below):
    # a bank path that is a regular file, or lies below one, is refused
    # before any chunking, replay or report write
    bank = _write(tmp_path / "bank", "not a directory")
    path = bank / "bank" if below else bank
    _write(tmp_path / "c.txt", "alpha beta gamma delta")
    _write(tmp_path / "t.trace", '{"at": 0, "kind": "idle_tick"}\n')
    monkeypatch.chdir(tmp_path)
    for cls, name in ((knowledge.KnowledgeBank, "ingest_text"), (Engine, "apply_event")):
        monkeypatch.setattr(cls, name, lambda *a, **k: pytest.fail("ran past the open"))
    assert run(argv + ["--bank", path]) == EXIT_DATA
    assert capsys.readouterr() == ("", f"{path}: not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bank", "c.txt", "t.trace"]
    assert bank.read_text(encoding="utf-8") == "not a directory"


@pytest.mark.parametrize("argv", [INGEST, REPLAY + ["--persist"]], ids=["ingest", "replay-persist"])
def test_unwritable_bank_exit_2(tmp_path, capsys, monkeypatch, argv):
    # the bank opens, but a regular file stands where its slices/ directory
    # goes, so the persist fails, and nothing of the bank is written
    bank = tmp_path / "bank"
    bank.mkdir()
    _write(bank / "slices", "not a directory")
    _write(tmp_path / "c.txt", "alpha beta gamma delta")
    _write(tmp_path / "t.trace", json.dumps({"at": 0, "kind": "chunk_arrival", "text": "alpha"}))
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--bank", bank]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {bank}: ") and "Traceback" not in err
    assert [p.name for p in bank.iterdir()] == ["slices"]


def test_replay_persist_then_reuse(tmp_path, capsys):
    trace = _write(
        tmp_path / "t.trace",
        json.dumps({"at": 0, "kind": "chunk_arrival", "text": "alpha beta gamma"}) + "\n"
        + json.dumps({"at": 1, "kind": "query_arrival", "text": "what is alpha?"}) + "\n",
    )
    bank = tmp_path / "bank"
    out1 = tmp_path / "o1.csv"
    assert run(["replay", "--trace", trace, "--bank", bank, "--out", out1, "--persist"]) == EXIT_OK
    # second run against the persisted bank answers from the QA cache
    trace2 = _write(
        tmp_path / "t2.trace",
        json.dumps({"at": 0, "kind": "query_arrival", "text": "what is alpha?"}) + "\n",
    )
    out2 = tmp_path / "o2.csv"
    assert run(["replay", "--trace", trace2, "--bank", bank, "--out", out2]) == EXIT_OK
    with open(out2, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["path"] == "qa_hit"


def _persisted_bank(tmp_path) -> Path:
    """A bank from ingesting the corpus and a persisted scenario replay."""
    bank = tmp_path / "bank"
    cfg = DATA / "configs" / "scenario.cfg"
    assert run(["ingest", "--corpus", DATA / "corpus.txt", "--bank", bank, "--config", cfg]) == EXIT_OK
    assert run([
        "replay", "--trace", DATA / "traces" / "threshold_raise.trace", "--bank", bank,
        "--config", cfg, "--out", tmp_path / "persist.csv", "--persist",
    ]) == EXIT_OK
    return bank


def _snapshot(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_replay_without_persist_leaves_bank_untouched(tmp_path, capsys, caplog):
    bank = _persisted_bank(tmp_path)
    before = _snapshot(bank)
    assert any(p.suffix == ".qkv" for p in before)
    trace = _write(
        tmp_path / "shrink.trace",
        json.dumps({"at": 0, "kind": "config_change", "field": "qkv_limit_bytes", "value": 1})
        + "\n" + json.dumps({"at": 1, "kind": "query_arrival", "text": "who runs the budget review?"})
        + "\n" + json.dumps({"at": 2, "kind": "chunk_arrival", "text": "the team meets at noon"})
        + "\n" + json.dumps({"at": 3, "kind": "query_arrival", "text": "when does the team meet?"})
        + "\n",
    )
    cfg = DATA / "configs" / "scenario.cfg"
    assert run(["replay", "--trace", trace, "--bank", bank, "--config", cfg,
                "--out", tmp_path / "shrink.csv"]) == EXIT_OK
    assert _snapshot(bank) == before
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert run(["replay", "--trace", _write(tmp_path / "e.trace", ""), "--bank", bank,
                    "--config", cfg, "--out", tmp_path / "e.csv"]) == EXIT_OK
    assert not caplog.records
    fresh = tmp_path / "fresh"
    assert run(["replay", "--trace", trace, "--bank", fresh, "--config", cfg,
                "--out", tmp_path / "fresh.csv"]) == EXIT_OK
    assert not fresh.exists()


@pytest.mark.parametrize("name", ["manifest.jsonl", "chunks.jsonl", "qa.jsonl"])
@pytest.mark.parametrize("damage", ["truncate", "drop_field", "not_utf8", "duplicate",
                                    "lone_surrogate"])
def test_damaged_bank_file_exit_2(tmp_path, capsys, name, damage):
    bank = _persisted_bank(tmp_path)
    path = bank / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if damage == "truncate":
        path.write_text("".join(lines)[:50], encoding="utf-8")
        lineno = 1
    elif damage == "not_utf8":
        lines[1] = lines[1][:5] + "\udcff" + lines[1][5:]  # one 0xff byte in line 2
        path.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
        lineno = 2
    elif damage == "duplicate":  # a second record of one node id, chunk_id or query
        path.write_text("".join(lines + lines[1:2]), encoding="utf-8")
        lineno = len(lines) + 1
    elif damage == "lone_surrogate":  # a JSON escape, which UTF-8 cannot encode
        rec = json.loads(lines[1])
        key = {"manifest.jsonl": "chunk_id", "chunks.jsonl": "text", "qa.jsonl": "query"}[name]
        rec[key] = rec[key][:3] + "\ud800" + rec[key][3:]
        lines[1] = json.dumps(rec) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        lineno = 2
    else:
        rec = json.loads(lines[1])
        del rec[{"manifest.jsonl": "id", "chunks.jsonl": "text", "qa.jsonl": "query"}[name]]
        lines[1] = json.dumps(rec) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        lineno = 2
    capsys.readouterr()
    trace = _write(tmp_path / "e.trace", "")
    assert run(["replay", "--trace", trace, "--bank", bank, "--out", tmp_path / "o.csv"]) == EXIT_DATA
    assert f"{path}:{lineno}" in capsys.readouterr().err
    if name != "qa.jsonl":  # ingest does not read the QA bank
        corpus = _write(tmp_path / "c.txt", "alpha beta")
        assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_DATA
        assert f"{path}:{lineno}" in capsys.readouterr().err


@pytest.mark.parametrize("name,key,value", [
    ("qa.jsonl", "last_used", "x"),
    ("qa.jsonl", "query", 7),
    ("qa.jsonl", "use_count", True),  # a boolean is not an integer
    ("qa.jsonl", "stale", 0),
    ("manifest.jsonl", "id", "3"),
    ("manifest.jsonl", "retrieval_count", None),
    ("manifest.jsonl", "parent", [0]),
    ("manifest.jsonl", "chunk_id", None),  # the root's is ""
    ("chunks.jsonl", "text", 5),
])
def test_wrongly_typed_bank_field_exit_2(tmp_path, capsys, name, key, value):
    bank = _persisted_bank(tmp_path)
    path = bank / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[1])
    rec[key] = value
    lines[1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    trace = _write(tmp_path / "e.trace", "")
    assert run(["replay", "--trace", trace, "--bank", bank, "--out", tmp_path / "o.csv"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}:2: need {key!r} as " in err and "Traceback" not in err
    if name != "qa.jsonl":  # ingest does not read the QA bank
        corpus = _write(tmp_path / "c.txt", "alpha beta")
        assert run(["ingest", "--corpus", corpus, "--bank", bank]) == EXIT_DATA
        assert f"{path}:2: need {key!r} as " in capsys.readouterr().err


def _as_slice_format_v1(bank: Path) -> None:
    """Rewrite a persisted bank as slice format v1 wrote it: a 48-byte
    header that ends in a 32-byte content hash, Q, K and V rows per layer,
    and a manifest whose root record has no stamp."""
    manifest = bank / "manifest.jsonl"
    records = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    for rec in records:
        rec.pop("stamp", None)
        if rec["slice_file"] is not None:
            path = bank / "slices" / rec["slice_file"]
            kv = deserialize_slice(path.read_bytes()).data
            layers, _, tokens, heads, head_dim = kv.shape
            qkv = np.concatenate([np.ones_like(kv[:, :1]), kv], axis=1)
            data = struct.pack("<4sHHHHI32s", b"PQKV", 1, layers, heads, head_dim, tokens,
                               b"\0" * 32) + qkv.astype("<f4").tobytes()
            path.write_bytes(data)
            rec["byte_size"] = len(data)
    manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                        encoding="utf-8")


def test_bank_in_slice_format_v1_opens_with_an_empty_tree(tmp_path, capsys, caplog,
                                                          monkeypatch):
    # no reader for old slices: the tree is a cache, dropped at open and
    # filled again on demand; chunks and QA entries are kept. A root with
    # no stamp predates format v2, so no old slice is read or warned about
    bank = _persisted_bank(tmp_path)
    _as_slice_format_v1(bank)
    assert len(list((bank / "slices").glob("*.qkv"))) > 1
    cfg = DATA / "configs" / "scenario.cfg"
    chunks = (bank / "chunks.jsonl").read_bytes()
    queries = [json.loads(line)["query"] for line in (bank / "qa.jsonl").read_text().splitlines()]
    read = []
    with caplog.at_level(logging.WARNING), monkeypatch.context() as patch:
        patch.setattr(knowledge, "deserialize_slice", read.append)
        eng = Engine(EngineConfig.from_file(cfg), bank)
    assert not read
    assert not [r.getMessage() for r in caplog.records if "unreadable" in r.getMessage()]
    assert list(eng.bank.nodes) == [0] and eng.bank.used_bytes == 0
    assert len(eng.bank.chunks) == chunks.count(b"\n") and queries
    assert [e.query for e in eng.qa.entries] == queries
    trace = _write(tmp_path / "t.trace", json.dumps(
        {"at": 0, "kind": "query_arrival", "text": "which vendor contract needs renewal?"}) + "\n")
    capsys.readouterr()
    assert run(["replay", "--trace", trace, "--bank", bank, "--config", cfg,
                "--out", tmp_path / "o.csv", "--persist"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    slices = list((bank / "slices").glob("*.qkv"))
    assert slices and all(struct.unpack_from("<H", p.read_bytes(), 4) == (2,) for p in slices)
    assert (bank / "chunks.jsonl").read_bytes() == chunks


def test_duplicate_qa_query_exit_2(tmp_path, capsys):
    # two entries of one query would make the first QA eviction remove the
    # query twice; the load refuses the second line instead
    bank = _persisted_bank(tmp_path)
    path = bank / "qa.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 1
    path.write_text("".join(lines + lines[:1]), encoding="utf-8")
    trace = _write(tmp_path / "t.trace", json.dumps(
        {"at": 0, "kind": "config_change", "field": "qa_limit_bytes", "value": 4096}) + "\n")
    capsys.readouterr()
    assert run(["replay", "--trace", trace, "--bank", bank, "--out", tmp_path / "o.csv"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{path}:{len(lines) + 1}: duplicate query" in err and "Traceback" not in err


@pytest.mark.parametrize("content,lineno", [
    (b'{"entries": [{"template": "t", "response": "caf\xe9"}]}', 1),
    (b'{"fallback": "",\n "entries": [{"template": "t",', 2),
    (b'{"entries": {"template": "t", "response": "r"}}', None),
    (b'{"entries": [{"template": "t", "slots_digest": "*"}]}', None),
    (b'{"entries": [{"template": "t", "slots_digest": "0123abcd", "response": "r"}]}', None),
    (b'[{"template": "t", "response": "r"}]', None),
    # JSON escapes a lone surrogate; a summary holding one would crash the abstract's cap check
    (b'{"entries": [{"template": "summarize", "response": "notes \\ud800 here."}]}', None),
    (b'{"entries": [{"template": "summ\\udfffarize", "response": "r"}]}', None),
    (b'{"fallback": "\\ud800"}', None),
], ids=["not_utf8", "truncated", "entries_not_list", "no_response", "exact_digest", "not_object",
        "surrogate_response", "surrogate_template", "surrogate_fallback"])
def test_damaged_script_file_exit_2(tmp_path, capsys, content, lineno):
    script = tmp_path / "script.json"
    script.write_bytes(content)
    cfg = _write(tmp_path / "engine.cfg", "script_file=script.json\n")
    trace = _write(tmp_path / "e.trace", "")
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--config", cfg,
                "--out", out]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{script}:{lineno}:" if lineno else f"{script}:") in err
    assert "Traceback" not in err and not out.exists()


def _hand_metrics(tmp_path):
    records = [
        {"at": 0, "kind": "chunk_arrival", "qa_used_bytes": 0, "qkv_used_bytes": 10},
        {"at": 1, "kind": "query_arrival", "path": "cold_miss", "total_ms": 10.0,
         "qa_used_bytes": 4096, "qkv_used_bytes": 20},
        {"at": 2, "kind": "query_arrival", "path": "qa_hit", "total_ms": 2.0,
         "qa_used_bytes": 4096, "qkv_used_bytes": 20},
        {"at": 3, "kind": "query_arrival", "path": "qa_hit", "total_ms": 4.0,
         "qa_used_bytes": 4096, "qkv_used_bytes": 30},
        {"at": 4, "kind": "query_arrival", "path": "qkv_partial", "total_ms": 6.0,
         "qa_used_bytes": 8192, "qkv_used_bytes": 30},
    ]
    path = tmp_path / "m.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def test_report_arithmetic(tmp_path, capsys):
    path = _hand_metrics(tmp_path)
    assert run(["report", "--metrics", path, "--csv"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = dict(r for r in csv.reader(out.splitlines()) if len(r) == 2)
    assert rows["queries"] == "4"
    assert rows["qa_hit_rate"] == "0.5000"  # 2 of 4
    assert rows["qkv_hit_rate"] == "0.2500"
    assert rows["mean_ms[qa_hit]"] == "3.000"  # (2 + 4) / 2
    assert rows["mean_ms[cold_miss]"] == "10.000"
    assert rows["final_qa_used_bytes"] == "8192"
    assert rows["final_qkv_used_bytes"] == "30"


def test_report_plain_output(tmp_path, capsys):
    path = _hand_metrics(tmp_path)
    assert run(["report", "--metrics", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "qa_hit_rate: 0.5000" in out
    assert "storage over time" in out


@pytest.mark.parametrize(
    "bad_line",
    [
        "nope",
        "5",
        '{"at": 0, "kind": "query_arrival", "total_ms": 1.0}',
        '{"at": 0, "kind": "query_arrival", "path": "qa_hit"}',
        '{"at": 0, "kind": "query_arrival", "path": "qa_hit", "total_ms": "1"}',
        '{"at": 0, "kind": "query_arrival", "path": "qa_hit", "total_ms": NaN}',
    ],
    ids=["not_json", "not_object", "missing_path", "missing_total_ms", "text_total_ms",
         "nan_total_ms"],
)
def test_report_malformed_metrics(tmp_path, capsys, bad_line):
    path = _write(tmp_path / "m.jsonl", "{}\n" + bad_line + "\n")
    assert run(["report", "--metrics", path]) == EXIT_DATA
    assert f"{path}:2" in capsys.readouterr().err


@pytest.mark.parametrize("csv_flag", [[], ["--csv"]], ids=["plain", "csv"])
@pytest.mark.parametrize("record", [
    '{"at": 0, "kind": "query_arrival", "path": "\\ud800", "total_ms": 1.0}',
    '{"at": 0, "kind": "chunk_arrival", "qa_used_bytes": "\\ud800", "qkv_used_bytes": 0}',
], ids=["path", "qa_used_bytes"])
def test_report_refuses_a_string_it_cannot_print(tmp_path, capsys, record, csv_flag):
    # a lone surrogate, which no stdout encoding takes, in a value the
    # report prints: the query's path, or the last record's qa_used_bytes
    path = _write(tmp_path / "m.jsonl", "{}\n" + record + "\n")
    assert run(["report", "--metrics", path, *csv_flag]) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and f"{path}:2" in err


def test_report_accepts_an_infinite_total_ms(tmp_path, capsys):
    # the engine writes Infinity for a query under a tiny flops_per_ms
    path = _write(tmp_path / "m.jsonl", '{"at": 0, "kind": "query_arrival", '
                  '"path": "cold_miss", "total_ms": Infinity}\n')
    assert run(["report", "--metrics", path]) == EXIT_OK
    assert "mean_ms[cold_miss]: inf" in capsys.readouterr().out
