"""Bundled-trace replays reproduce committed outputs byte for byte.

Each pair is `percache ingest` of data/corpus.txt followed by
`percache replay --persist` of one bundled trace under one bundled
config. The metrics JSONL must equal tests/golden/<trace>__<cfg>.jsonl,
and the SHA-256 of the persisted bank directory (sorted relative paths
plus file bytes) must equal tests/golden/<trace>__<cfg>.bank.sha256.
A refactor must leave these bytes unchanged; only an intended change of
behaviour regenerates them, with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each golden it rewrites, the record keys whose values
changed against the file it replaces and in how many records, and whether
the bank digest changed.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import percache
from percache.backend import ToyModel
from percache.cli import EXIT_OK, main
from percache.engine import Engine
from percache.knowledge import slice_size

from conftest import DATA, checked_prefill

GOLDEN = Path(__file__).resolve().parent / "golden"

PAIRS = [
    ("threshold_raise", "scenario"),
    ("threshold_drop", "scenario"),
    ("limit_relax", "scenario_c"),
    ("monotonicity", "default"),
    ("idle_work", "idle_work"),
]

# the last line `percache replay` prints for each pair; its total flops is
# the sum of the records' prefill, decode and idle-tick FLOPs
SUMMARIES = {
    "threshold_raise": "4 queries, 0 qa hits, total flops 5940336",
    "threshold_drop": "5 queries, 0 qa hits, total flops 7743984",
    "limit_relax": "4 queries, 0 qa hits, total flops 6403792",
    "monotonicity": "16 queries, 3 qa hits, total flops 17712640",
    "idle_work": "6 queries, 2 qa hits, total flops 20906496",
}


def bank_digest(bank: Path) -> str:
    h = hashlib.sha256()
    files = sorted((p.relative_to(bank).as_posix(), p) for p in bank.rglob("*") if p.is_file())
    for rel, path in files:
        h.update(rel.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def replay(trace: str, cfg: str, workdir: Path) -> tuple[bytes, str]:
    """Metrics JSONL bytes and persisted bank digest of one pair."""
    config = str(DATA / "configs" / f"{cfg}.cfg")
    bank = workdir / "bank"
    metrics = workdir / "metrics.jsonl"
    assert main(["ingest", "--corpus", str(DATA / "corpus.txt"), "--bank", str(bank),
                 "--config", config]) == EXIT_OK
    assert main(["replay", "--trace", str(DATA / "traces" / f"{trace}.trace"), "--bank", str(bank),
                 "--config", config, "--out", str(workdir / "out.csv"),
                 "--metrics", str(metrics), "--persist"]) == EXIT_OK
    return metrics.read_bytes(), bank_digest(bank)


def first_difference(got: bytes, want: bytes) -> str:
    """Where two metrics streams first differ: the record number and the
    keys whose values differ, or the line that does not parse."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g == w:
            continue
        try:
            g_rec, w_rec = json.loads(g), json.loads(w)
        except json.JSONDecodeError:
            return f"record {i}: {g!r} != {w!r}"
        keys = sorted(k for k in g_rec.keys() | w_rec.keys() if g_rec.get(k) != w_rec.get(k))
        return f"record {i} ({w_rec.get('kind')} at {w_rec.get('at')}) differs in " + ", ".join(
            f"{k}: {g_rec.get(k, '<missing>')!r} != golden {w_rec.get(k, '<missing>')!r}"
            for k in keys)
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} records != golden {len(want_lines)}"
    return "the streams differ only in line endings"


def changed_keys(got: bytes, want: bytes) -> str:
    """The keys whose values differ between two metrics streams, record by
    record, each with the number of records it differs in."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    counts: Counter = Counter()
    for g, w in zip(got_lines, want_lines):
        g_rec, w_rec = json.loads(g), json.loads(w)
        counts.update(k for k in g_rec.keys() | w_rec.keys()
                      if g_rec.get(k, "<missing>") != w_rec.get(k, "<missing>"))
    out = [f"{k} in {n} records" for k, n in sorted(counts.items())] or ["no key changed"]
    if len(got_lines) != len(want_lines):
        out.append(f"{len(got_lines)} records, was {len(want_lines)}")
    return ", ".join(out)


@pytest.mark.parametrize("trace,cfg", PAIRS)
def test_replay_matches_golden(tmp_path, capsys, trace, cfg):
    metrics, digest = replay(trace, cfg, tmp_path)
    golden = (GOLDEN / f"{trace}__{cfg}.jsonl").read_bytes()
    assert metrics == golden, first_difference(metrics, golden)
    assert digest == (GOLDEN / f"{trace}__{cfg}.bank.sha256").read_text(encoding="utf-8").strip()
    assert capsys.readouterr().out.splitlines()[-1] == SUMMARIES[trace]


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels at run
    time, so OPENBLAS_CORETYPE selects another CPU's kernels."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_replay_matches_golden_under_other_blas_kernels(tmp_path, coretype):
    # contract 2 holds across machines, not per machine: a replay whose
    # BLAS runs another CPU's kernels writes the golden bytes
    path = [str(Path(percache.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")])}
    code = ("import sys; from pathlib import Path; from test_golden import replay; "
            "replay('monotonicity', 'default', Path(sys.argv[1]))")
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                   capture_output=True, timeout=100)
    metrics = (tmp_path / "metrics.jsonl").read_bytes()
    golden = (GOLDEN / "monotonicity__default.jsonl").read_bytes()
    assert metrics == golden, first_difference(metrics, golden)
    assert bank_digest(tmp_path / "bank") == (
        GOLDEN / "monotonicity__default.bank.sha256").read_text(encoding="utf-8").strip()


@pytest.mark.parametrize("trace,cfg", PAIRS)
def test_cached_prefill_equals_recomputation(tmp_path, capsys, monkeypatch, trace, cfg):
    # contract 1 at every prefill from a cached prefix in the bundled
    # replays: the serving path's and idle restoration's alike
    seen, restoring = [], []
    restore = Engine.restore_evicted_slices

    def counted(self, flops_left):
        before = len(seen)
        result = restore(self, flops_left)
        restoring.append(len(seen) - before)
        return result

    monkeypatch.setattr(ToyModel, "prefill", checked_prefill(seen))
    monkeypatch.setattr(Engine, "restore_evicted_slices", counted)
    replay(trace, cfg, tmp_path)
    assert len(seen) > sum(restoring), "no query reused a cached prefix"
    if trace in ("idle_work", "limit_relax"):
        assert sum(restoring) > 0, "no restoration prefilled from a cached prefix"


@pytest.mark.parametrize("trace,cfg", PAIRS)
def test_tree_bytes_match_present_slices_after_every_event(tmp_path, capsys, monkeypatch,
                                                           trace, cfg):
    # the tree's byte invariant through inserts, idle restoration and
    # budget changes: used_bytes is the byte_size of the present nodes,
    # within the budget, and each byte_size is its slice's serialized length
    apply, held = Engine.apply_event, []

    def checked(self, event):
        record = apply(self, event)
        bank = self.bank
        present = [n for n in bank.nodes.values() if n.present]
        assert bank.used_bytes == sum(n.byte_size for n in present) <= bank.limit_bytes, record
        assert all(n.byte_size == slice_size(n.tensors) for n in present), record
        held.append(len(present))
        return record

    monkeypatch.setattr(Engine, "apply_event", checked)
    replay(trace, cfg, tmp_path)
    assert max(held) > 1, "no event left a chunk slice in the tree"


@pytest.mark.parametrize("trace,cfg", PAIRS)
def test_drafted_decode_replays_repeat_with_golden_answers(tmp_path, capsys, monkeypatch,
                                                           trace, cfg):
    # each engine drafts decodes from a table its own decodes fill: two
    # replays on fresh engines in one process write one stream, every
    # decode emits the ids of decoding without drafts, and every answer is
    # the golden's
    rows = []
    decode = ToyModel.decode_ids

    def checked(self, state, max_tokens, eos_id=None, drafts=None, passes=None):
        macs = self.mac_count
        plain = decode(self, state, max_tokens, eos_id)
        self.mac_count = macs
        ids = decode(self, state, max_tokens, eos_id, drafts, passes)
        assert ids == plain
        rows.extend(r for _, r in passes)
        return ids

    monkeypatch.setattr(ToyModel, "decode_ids", checked)
    streams = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        streams.append(replay(trace, cfg, tmp_path / run)[0])
    assert streams[0] == streams[1], first_difference(streams[1], streams[0])
    answers = lambda stream: [json.loads(line).get("answer") for line in stream.splitlines()]
    assert answers(streams[0]) == answers((GOLDEN / f"{trace}__{cfg}.jsonl").read_bytes())
    assert max(rows) > 1, "no pass verified a draft"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for trace, cfg in PAIRS:
        with tempfile.TemporaryDirectory() as tmp:
            metrics, digest = replay(trace, cfg, Path(tmp))
        metrics_file = GOLDEN / f"{trace}__{cfg}.jsonl"
        digest_file = GOLDEN / f"{trace}__{cfg}.bank.sha256"
        keys = changed_keys(metrics, metrics_file.read_bytes()) if metrics_file.exists() else "new"
        old_digest = digest_file.read_text(encoding="utf-8").strip() if digest_file.exists() else ""
        metrics_file.write_bytes(metrics)
        digest_file.write_text(digest + "\n", encoding="utf-8")
        print(f"{trace}__{cfg}.jsonl: {keys}; bank digest "
              f"{'unchanged' if digest == old_digest else 'changed'}")
