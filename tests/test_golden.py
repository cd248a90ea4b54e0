"""Bundled-trace replays reproduce committed metrics streams byte for byte.

Each golden file is the metrics JSONL of `percache ingest` of
data/corpus.txt followed by `percache replay` of one bundled trace under
one bundled config. A refactor must leave these bytes unchanged; only an
intended change of behaviour regenerates them, with

    PYTHONPATH=src python tests/test_golden.py
"""

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
]


def replay_metrics(trace: str, cfg: str, workdir: Path) -> bytes:
    config = str(DATA / "configs" / f"{cfg}.cfg")
    bank = str(workdir / "bank")
    metrics = workdir / "metrics.jsonl"
    assert main(["ingest", "--corpus", str(DATA / "corpus.txt"), "--bank", bank,
                 "--config", config]) == EXIT_OK
    assert main(["replay", "--trace", str(DATA / "traces" / f"{trace}.trace"), "--bank", bank,
                 "--config", config, "--out", str(workdir / "out.csv"),
                 "--metrics", str(metrics)]) == EXIT_OK
    return metrics.read_bytes()


@pytest.mark.parametrize("trace,cfg", PAIRS)
def test_replay_matches_golden(tmp_path, capsys, trace, cfg):
    expected = (GOLDEN / f"{trace}__{cfg}.jsonl").read_bytes()
    assert replay_metrics(trace, cfg, tmp_path) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for trace, cfg in PAIRS:
        with tempfile.TemporaryDirectory() as tmp:
            data = replay_metrics(trace, cfg, Path(tmp))
        (GOLDEN / f"{trace}__{cfg}.jsonl").write_bytes(data)
        print(f"wrote {trace}__{cfg}.jsonl", file=sys.stderr)
