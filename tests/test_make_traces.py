import importlib.util
import tempfile

from conftest import DATA, REPO


def test_make_traces_rewrites_the_bundled_data(tmp_path, monkeypatch):
    # the script's constraint checks pass, every file it writes equals the
    # bundled one byte for byte, and its scratch engines leave nothing behind
    spec = importlib.util.spec_from_file_location("make_traces", REPO / "scripts" / "make_traces.py")
    make_traces = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_traces)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))  # its scratch engines
    monkeypatch.setattr(make_traces, "DATA", tmp_path / "data")
    assert make_traces.main() == 0
    assert list((tmp_path / "tmp").iterdir()) == []
    written = sorted(p.relative_to(tmp_path / "data") for p in (tmp_path / "data").rglob("*")
                     if p.is_file())
    assert written
    for rel in written:
        assert (tmp_path / "data" / rel).read_bytes() == (DATA / rel).read_bytes(), rel
