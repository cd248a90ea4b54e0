"""Bundled-trace replays reproduce committed outputs byte for byte.

Each pair is `percache ingest` of data/corpus.txt followed by
`percache replay --persist` of one bundled trace under one bundled
config. The metrics JSONL must equal tests/golden/<trace>__<cfg>.jsonl,
and the SHA-256 of the persisted bank directory (sorted relative paths
plus file bytes) must equal tests/golden/<trace>__<cfg>.bank.sha256.
A refactor must leave these bytes unchanged; only an intended change of
behaviour regenerates them, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from percache.cli import EXIT_OK, main

from conftest import DATA

GOLDEN = Path(__file__).resolve().parent / "golden"

PAIRS = [
    ("threshold_raise", "scenario"),
    ("threshold_drop", "scenario"),
    ("limit_relax", "scenario_c"),
    ("monotonicity", "default"),
    ("idle_work", "idle_work"),
]


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


@pytest.mark.parametrize("trace,cfg", PAIRS)
def test_replay_matches_golden(tmp_path, capsys, trace, cfg):
    metrics, digest = replay(trace, cfg, tmp_path)
    assert metrics == (GOLDEN / f"{trace}__{cfg}.jsonl").read_bytes()
    assert digest == (GOLDEN / f"{trace}__{cfg}.bank.sha256").read_text(encoding="utf-8").strip()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for trace, cfg in PAIRS:
        with tempfile.TemporaryDirectory() as tmp:
            metrics, digest = replay(trace, cfg, Path(tmp))
        (GOLDEN / f"{trace}__{cfg}.jsonl").write_bytes(metrics)
        (GOLDEN / f"{trace}__{cfg}.bank.sha256").write_text(digest + "\n", encoding="utf-8")
        print(f"wrote {trace}__{cfg}.jsonl and .bank.sha256", file=sys.stderr)
