import csv
import json
import logging
from pathlib import Path

import pytest

from percache.cli import CSV_COLUMNS, EXIT_DATA, EXIT_OK, EXIT_USAGE, main

from conftest import DATA


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
])
def test_replay_bad_event_value_exit_2(tmp_path, capsys, event):
    trace = _write(
        tmp_path / "bad.trace", '{"at": 0, "kind": "idle_tick"}\n' + json.dumps(event) + "\n"
    )
    out = tmp_path / "out.csv"
    assert run(["replay", "--trace", trace, "--bank", tmp_path / "b", "--out", out]) == EXIT_DATA
    assert f"{trace}:2" in capsys.readouterr().err


def test_replay_bad_config_exit_2(tmp_path, capsys):
    trace = _write(tmp_path / "t.trace", "")
    # an unknown key, an out-of-range value, a QA budget below one entry,
    # and the text backend selector, which no longer exists
    for line in ("unknown_key=1", "tau_query=7", "qa_limit_bytes=100", "backend=toy"):
        cfg = _write(tmp_path / "c.cfg", line + "\n")
        assert run([
            "replay", "--trace", trace, "--bank", tmp_path / "b",
            "--config", cfg, "--out", tmp_path / "o.csv",
        ]) == EXIT_DATA
        assert f"{cfg}:1: " in capsys.readouterr().err


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
@pytest.mark.parametrize("damage", ["truncate", "drop_field", "not_utf8"])
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


@pytest.mark.parametrize("content,lineno", [
    (b'{"entries": [{"template": "t", "response": "caf\xe9"}]}', 1),
    (b'{"fallback": "",\n "entries": [{"template": "t",', 2),
    (b'{"entries": {"template": "t", "response": "r"}}', None),
    (b'{"entries": [{"template": "t", "slots_digest": "*"}]}', None),
    (b'{"entries": [{"template": "t", "slots_digest": "0123abcd", "response": "r"}]}', None),
], ids=["not_utf8", "truncated", "entries_not_list", "no_response", "exact_digest"])
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
    ],
    ids=["not_json", "not_object", "missing_path", "missing_total_ms", "text_total_ms"],
)
def test_report_malformed_metrics(tmp_path, capsys, bad_line):
    path = _write(tmp_path / "m.jsonl", "{}\n" + bad_line + "\n")
    assert run(["report", "--metrics", path]) == EXIT_DATA
    assert f"{path}:2" in capsys.readouterr().err
