import json
import logging
import os
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from percache.backend import QkvTensors, ToyModel, ToyModelConfig
from percache.knowledge import (
    BankError,
    LayoutError,
    Segment,
    StorageError,
    chunk_words,
    content_hash,
    deserialize_slice,
    serialize_slice,
    slice_size,
)
from percache.textcore import TokenizerVocab, tokenize

from conftest import fake_bank, fake_tensors, insert_path, load_bank, path_segments, path_tokens


def test_chunk_words_split():
    text = " ".join(f"w{i}" for i in range(250))
    parts = chunk_words(text, 100)
    assert [len(p.split()) for p in parts] == [100, 100, 50]
    assert " ".join(parts) == text


def test_chunk_words_canonical_spacing():
    assert chunk_words("a   b\n c", 100) == ["a b c"]
    assert chunk_words("", 100) == []


def test_ingest_dedupes_and_collision_suffix(tmp_path, monkeypatch):
    def no_tokenize(*args):
        raise AssertionError("ingest must not tokenize")

    monkeypatch.setattr("percache.knowledge.tokenize", no_tokenize)
    bank = fake_bank(tmp_path)
    first = bank.ingest_text("alpha beta")
    again = bank.ingest_text("alpha beta")
    assert first == again
    # force an id collision: pre-seed the bank with a chunk occupying the id
    cid = content_hash("gamma delta").hex()[:16]
    bank.chunks[cid] = bank.chunks[first[0]]
    new = bank.ingest_text("gamma delta")
    assert new[0] == f"{cid}-1"


def test_slice_round_trip():
    rng = np.random.default_rng(5)
    tensors = QkvTensors(rng.normal(size=(2, 2, 4, 2, 3)).astype(np.float32))
    payload = serialize_slice(tensors)
    back = deserialize_slice(payload)
    assert np.array_equal(back.data, tensors.data)
    # the payload is per layer K, V, each (token, head, dim) row-major
    k1 = np.frombuffer(payload, "<f4", count=4 * 2 * 3, offset=len(payload) - tensors.data.nbytes // 2)
    assert np.array_equal(k1.reshape(4, 2, 3), tensors.data[1, 0])
    # round trip is byte-stable, and the result is a writable copy
    assert serialize_slice(back) == payload
    back.data.fill(0.0)
    # the size the bank charges is the serialized length, zero tokens
    # too: a 16-byte header, then 4 bytes for each of K and V per layer,
    # token, head and dimension
    for layers, tokens, heads, head_dim in ((2, 4, 2, 3), (1, 0, 1, 2), (3, 7, 4, 16), (1, 1, 1, 1)):
        shaped = QkvTensors(np.zeros((layers, 2, tokens, heads, head_dim), np.float32))
        payload = serialize_slice(shaped)
        assert slice_size(shaped) == len(payload) == 16 + 8 * layers * tokens * heads * head_dim
        assert deserialize_slice(payload).data.shape == shaped.data.shape


def test_slice_corrupt_rejected():
    with pytest.raises(ValueError):
        deserialize_slice(b"XXXX" + b"\0" * 60)
    with pytest.raises(ValueError):
        deserialize_slice(b"\0" * 4)
    tensors = QkvTensors(np.zeros((1, 2, 1, 1, 2), np.float32))
    payload = serialize_slice(tensors)
    with pytest.raises(ValueError):
        deserialize_slice(payload[:-1])  # truncated
    with pytest.raises(ValueError):
        deserialize_slice(payload + b"\0" * 4)  # trailing bytes


def test_segment_token_spans_straddling(tmp_path):
    # multi-char vocab entry "ab" straddles the segment boundary between
    # "a" and "b"; the token belongs to the earlier segment (start byte)
    vocab = TokenizerVocab(["ab", "a", "b", "c"])
    bank = fake_bank(tmp_path, vocab=vocab)
    segments = [Segment("a"), Segment("bc", "c1"), Segment("")]
    toks = tokenize("abc", vocab)
    spans = bank.segment_token_spans(segments, toks)
    assert spans == [(0, 1), (1, 2), (2, 2)]
    # an empty middle chunk gets an empty span; "é" is two byte-fallback
    # tokens, each counted in the segment holding its start byte
    segments = [Segment("a"), Segment("", "c0"),
                Segment("bcé", "c1"), Segment("é")]
    toks = tokenize("abcéé", vocab)
    starts = list(accumulate((len(vocab.token_bytes(t)) for t in toks), initial=0))
    assert starts == [0, 2, 3, 4, 5, 6, 7]
    spans = bank.segment_token_spans(segments, toks)
    assert spans == [(0, 1), (1, 1), (1, 4), (4, 6)]


def test_segment_token_spans_layout_error(tmp_path):
    vocab = TokenizerVocab(["a", "b"])
    bank = fake_bank(tmp_path, vocab=vocab)
    toks = tokenize("ab", vocab)
    for layout in (["abc"], ["a"], ["a", "bc"], ["a", ""]):  # longer or shorter than the tokens
        with pytest.raises(LayoutError):
            bank.segment_token_spans([Segment(t) for t in layout], toks)
    assert bank.segment_token_spans([Segment("a"), Segment("b")], toks) == [(0, 1), (1, 2)]


def _tree_paths(bank):
    """All root-to-leaf chunk-id paths."""
    out = []

    def walk(node, acc):
        if not node.children:
            out.append(acc)
        for ch in node.children:
            walk(ch, acc + [ch.chunk_id])

    walk(bank.root, [])
    return sorted(out)


def test_last_common_node_duplicated(tmp_path):
    # inserting [c1,c5,c7] then [c1,c5,c9] must share only c1: the last
    # common node c5 is duplicated so each path owns its own c5 slice
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c5", "c7"], now=1)
    insert_path(bank, ["c1", "c5", "c9"], now=2)
    assert _tree_paths(bank) == [["c1", "c5", "c7"], ["c1", "c5", "c9"]]
    c1_nodes = [n for n in bank.nodes.values() if n.chunk_id == "c1"]
    c5_nodes = [n for n in bank.nodes.values() if n.chunk_id == "c5"]
    assert len(c1_nodes) == 1 and len(c5_nodes) == 2
    # invariant: all children of a non-root node share the same chunk id
    for node in bank.nodes.values():
        if node is bank.root:
            continue
        kinds = {c.chunk_id for c in node.children}
        assert len(kinds) <= 1


def test_reinsert_same_path_idempotent(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    nodes_before = set(bank.nodes)
    used_before = bank.used_bytes
    written = insert_path(bank, ["c1", "c2"], now=2)
    assert written == []
    assert set(bank.nodes) == nodes_before
    assert bank.used_bytes == used_before


def _match(bank, path, now, query="q"):
    return bank.match_prefix(path, path_tokens(bank, path, query), now)


def test_match_prefix_examples(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2", "c3"], now=1)
    # exact path
    prefix, matched, discarded = _match(bank, ["c1", "c2", "c3"], now=2)
    assert matched == 3 and discarded == 0 and prefix is not None
    # partial path: only the shared spine matches
    prefix, matched, _ = _match(bank, ["c1", "c2", "c9"], now=3)
    assert matched == 2
    # no chunk overlap: system-only prefix
    prefix, matched, _ = _match(bank, ["x1", "x2"], now=4)
    assert matched == 0 and prefix.prefix_token_count > 0
    # empty tree root
    empty = fake_bank(tmp_path / "e")
    assert _match(empty, ["c1"], now=0) == (None, 0, 0)


def test_match_prefix_reuses_the_longest_common_token_prefix(tmp_path):
    # prompts that agree with the cached ids up to `cut` tokens, by a changed
    # token or by ending there: exactly `cut` rows are reused, and only the
    # nodes those rows reach are counted, LFU-bumped and loaded
    bank = fake_bank(tmp_path)
    segs = path_segments(["c1", "c2"])
    text = "".join(s.text for s in segs)
    toks = tokenize(text, bank.vocab)
    qkv = fake_tensors(text, toks, bank.vocab)
    bank.slice_and_insert(segs, toks, qkv, now=1)
    nodes = [bank.root] + [n for n in bank.nodes.values() if n.chunk_id in ("c1", "c2")]
    starts = [0, len(nodes[0].token_ids), len(nodes[0].token_ids) + len(nodes[1].token_ids)]
    cached = starts[-1] + len(nodes[2].token_ids)
    assert cached < len(toks)  # the query is never cached
    for cut in range(len(toks) + 1):
        for prompt in (toks[:cut] + (-1,) + toks[cut + 1:], toks[:cut]):
            before = [n.retrieval_count for n in nodes]
            prefix, matched, discarded = bank.match_prefix(["c1", "c2"], prompt, now=2)
            bumps = [n.retrieval_count - b for n, b in zip(nodes, before)]
            l_pre = min(cut, cached)
            if l_pre == 0:
                assert (prefix, matched, discarded) == (None, 0, 0) and bumps == [0, 0, 0]
                continue
            reached = sum(1 for start in starts if start < l_pre)
            assert prefix.prefix_token_count == l_pre
            assert np.array_equal(prefix.tensors.data, qkv.data[:, :, :l_pre])
            assert matched == reached - 1 and bumps == [1] * reached + [0] * (3 - reached)
            assert discarded == (starts + [cached])[reached] - l_pre


@pytest.mark.parametrize("evicted", [False, True])
def test_insert_writes_no_node_below_other_ids(tmp_path, evicted):
    # with one-word chunks the token "a b c" spans chunk b whole, so chunk
    # a's ids depend on the chunk after b. [a, b, d] tokenizes a as "a b":
    # a b node written below the kept "a b c", present or evicted, would
    # hold a row computed after other ids, and [a, b, c] would reuse it
    # once its own b is gone
    bank = fake_bank(tmp_path, vocab=TokenizerVocab(["a b c", "a b"]))
    insert_path(bank, ["a", "b", "c"], now=1)
    a = next(n for n in bank.nodes.values() if n.chunk_id == "a")
    b = a.children[0]
    assert [len(n.token_ids) for n in (b, b.children[0])] == [0, 1]
    if evicted:
        bank._evict_node(a)
    assert insert_path(bank, ["a", "b", "d"], now=2) == []
    if evicted:
        assert insert_path(bank, ["a", "b", "c"], now=3) == [a.node_id]  # the refill
    bank._evict_node(b)
    segs = path_segments(["a", "b", "c"])
    text = "".join(s.text for s in segs)
    toks = tokenize(text, bank.vocab)
    prefix, matched, _ = bank.match_prefix(["a", "b", "c"], toks, now=4)
    assert matched == 1
    assert np.array_equal(prefix.tensors.data,
                          fake_tensors(text, toks, bank.vocab).data[:, :, : prefix.prefix_token_count])


def test_stored_slices_never_alias(tmp_path):
    # writes into the tensors given to slice_and_insert, or into those
    # match_prefix returns, must not reach the stored slices
    bank = fake_bank(tmp_path)
    segs = path_segments(["c1", "c2"])
    text = "".join(s.text for s in segs)
    toks = tokenize(text, bank.vocab)
    qkv = fake_tensors(text, toks, bank.vocab)
    bank.slice_and_insert(segs, toks, qkv, now=1)
    for path in (["c1", "c2"], ["zz"]):  # a whole path, and the root alone
        first, _, _ = _match(bank, path, now=2)
        want = first.tensors.data.copy()
        qkv.data.fill(-1.0)
        first.tensors.data.fill(-1.0)
        again, _, _ = _match(bank, path, now=3)
        assert np.array_equal(again.tensors.data, want)


def test_insert_refuses_tensors_one_token_short(tmp_path):
    # tensors that do not cover every token of the prompt are a layout
    # error, and nothing is written: not the tree, not the ledger, no file
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1"], now=1)
    state = lambda: ([(n.node_id, n.chunk_id, n.token_ids, n.present, n.retrieval_count,
                       n.last_used, len(n.children)) for n in bank.nodes.values()],
                     bank.used_bytes, _dir_bytes(tmp_path))
    before = state()
    segs = path_segments(["c1", "c2"])
    text = "".join(s.text for s in segs)
    toks = tokenize(text, bank.vocab)
    short = fake_tensors(text, toks, bank.vocab).slice_tokens(0, len(toks) - 1)
    with pytest.raises(LayoutError, match="token count"):
        bank.slice_and_insert(segs, toks, short, now=2)
    assert state() == before and len(before[0]) == 2  # the root and c1


def test_prefill_and_decode_leave_their_inputs_unchanged(tmp_path):
    # Engine.answer decodes from a prefill state and then slices that same
    # state into the tree; prefill reads a prefix the bank copied out. So
    # neither may write to what it reads, nor reach the stored slices.
    bank = fake_bank(tmp_path)
    model = ToyModel(ToyModelConfig(layers=2, heads=2, head_dim=4, vocab_size=bank.vocab.size,
                                    seed=0x7031))
    segs = path_segments(["c1", "c2"])
    text = "".join(s.text for s in segs)
    toks = tokenize(text, bank.vocab)
    state = model.prefill(toks)
    want = state.tensors.data.copy()
    model.decode_ids(state, 5)
    assert np.array_equal(state.tensors.data, want)
    bank.slice_and_insert(segs, toks, state.tensors, now=1)
    stored = {n.node_id: n.tensors.data.copy() for n in [n for n in bank.nodes.values() if n.present]}
    prefix, matched, _ = _match(bank, ["c1", "c2"], now=2)
    assert matched == 2 and prefix.prefix_token_count < len(toks)
    prefix_data = prefix.tensors.data.copy()
    cached = model.prefill(toks, prefix)
    assert np.array_equal(prefix.tensors.data, prefix_data)
    model.decode_ids(cached, 5)
    assert np.array_equal(cached.tensors.data, want)
    for node in [n for n in bank.nodes.values() if n.present]:
        assert np.array_equal(node.tensors.data, stored[node.node_id])


def test_match_skips_absent_nodes(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    c2 = next(n for n in bank.nodes.values() if n.chunk_id == "c2")
    bank._evict_node(c2)
    _, matched, _ = _match(bank, ["c1", "c2"], now=2)
    assert matched == 1


def test_lfu_eviction_order(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["a1"], now=1, query="qa")
    insert_path(bank, ["b1"], now=2, query="qb")
    insert_path(bank, ["d1"], now=3, query="qd")
    # retrieval counts: a1 -> 5, b1 -> 1, d1 -> 3
    for _ in range(5):
        _match(bank, ["a1"], now=10)
    _match(bank, ["b1"], now=11)
    for _ in range(3):
        _match(bank, ["d1"], now=12)
    b1 = next(n for n in bank.nodes.values() if n.chunk_id == "b1")
    d1 = next(n for n in bank.nodes.values() if n.chunk_id == "d1")
    # shrink so exactly the two least-used chunk nodes must go; the root is
    # the most-used node (every match touches it)
    target = bank.used_bytes - b1.byte_size - d1.byte_size
    evicted = bank.set_limit(target)
    assert evicted == [b1.node_id, d1.node_id]
    assert not b1.present and not d1.present
    assert bank.used_bytes <= target


def test_oversized_item_and_nothing_evictable(tmp_path):
    bank = fake_bank(tmp_path, limit_bytes=64)
    with pytest.raises(StorageError):
        insert_path(bank, ["c1", "c2", "c3"], now=1)
    # nothing was written by the failed insert
    assert bank.used_bytes == 0
    with pytest.raises(StorageError):
        bank.evict_to_fit(100)


def test_refill_requires_identical_kept_ids(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    c2 = next(n for n in bank.nodes.values() if n.chunk_id == "c2")
    ids, rows = c2.token_ids, c2.tensors.data.tobytes()
    # same path, same query: the root path's ids match, refill happens
    bank._evict_node(c2)
    written = insert_path(bank, ["c1", "c2"], now=2)
    assert written == [c2.node_id] and c2.present
    assert c2.token_ids == ids and c2.tensors.data.tobytes() == rows
    # evict again and reinsert with a different query: the query segment is
    # after c2, so c2's root path keeps its ids and the refill writes the
    # same rows
    bank._evict_node(c2)
    written = insert_path(bank, ["c1", "c2"], now=3, query="different")
    assert written == [c2.node_id]
    assert c2.token_ids == ids and c2.tensors.data.tobytes() == rows
    # c2's own segment with other ids, or a different system prompt (the
    # root's ids differ): the plan stops there and c2 stays absent
    bank._evict_node(c2)
    for index, seg in ((2, Segment("c2x ", "c2")), (0, Segment("T\n"))):
        segs = path_segments(["c1", "c2"])
        segs[index] = seg
        text = "".join(s.text for s in segs)
        toks = tokenize(text, bank.vocab)
        assert bank.slice_and_insert(segs, toks, fake_tensors(text, toks, bank.vocab), now=4) == []
        assert not c2.present and c2.token_ids == ids


def test_ledger_never_breached(tmp_path):
    bank = fake_bank(tmp_path, limit_bytes=4096)
    paths = [["a1"], ["a1", "b1"], ["c1"], ["d1", "e1"], ["a1", "b2"]]
    for i, p in enumerate(paths):
        insert_path(bank, p, now=i, query=f"q{i}")
        assert bank.used_bytes <= bank.limit_bytes
    recount = sum(n.byte_size for n in bank.nodes.values() if n.present)
    assert recount == bank.used_bytes


def test_persist_load_round_trip(tmp_path):
    bank = fake_bank(tmp_path)
    bank.ingest_text("alpha beta gamma")
    insert_path(bank, ["c1", "c2"], now=1)
    insert_path(bank, ["c1", "c9"], now=2)
    _match(bank, ["c1", "c2"], now=3)
    bank.persist()
    snapshot = _dir_bytes(tmp_path)

    loaded = load_bank(tmp_path)
    assert set(loaded.nodes) == set(bank.nodes)
    assert loaded.used_bytes == bank.used_bytes
    assert sorted(loaded.chunks) == sorted(bank.chunks)
    for nid, node in bank.nodes.items():
        other = loaded.nodes[nid]
        assert (node.chunk_id, node.retrieval_count, node.last_used,
                node.present, node.token_ids) == (
            other.chunk_id, other.retrieval_count, other.last_used,
            other.present, other.token_ids)
        assert node.token_ids  # kept past eviction too
        if node.present:
            assert np.array_equal(node.tensors.data, other.tensors.data)
    loaded.persist()
    assert _dir_bytes(tmp_path) == snapshot


@pytest.mark.parametrize("name,repeat", [("manifest.jsonl", "node"), ("manifest.jsonl", "root"),
                                         ("manifest.jsonl", "root_id"), ("chunks.jsonl", "chunk"),
                                         ("chunks.jsonl", "text")])
def test_load_refuses_a_repeated_record(tmp_path, name, repeat):
    # a node id on two lines, a second root under another id, or a node
    # under the root's id would leave a node that no eviction reaches,
    # charged to used_bytes for good; a chunk_id on two lines would let
    # ingest_text return the id of the second text for the first, and a text under
    # two chunk_ids would put it in one prompt twice
    bank = fake_bank(tmp_path)
    bank.ingest_text("one two three")
    insert_path(bank, ["c1"], now=1)
    bank.persist()
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[0 if repeat == "root" else -1])
    if repeat == "root":
        rec["id"] = 7
    elif repeat == "root_id":  # the root's record gives way to a node under id 0
        rec["id"], lines = 0, lines[1:]
    elif repeat == "chunk":
        rec["text"] = "seven eight nine"
    elif repeat == "text":
        rec["chunk_id"] = "zz-copy"
    path.write_text("".join(lines) + json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(BankError, match=f"{path}:{len(lines) + 1}: "):
        load_bank(tmp_path)


def test_load_refuses_an_unknown_parent(tmp_path):
    # a node whose parent is on no line would hang from no tree
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1"], now=1)
    bank.persist()
    path = tmp_path / "manifest.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rec = json.loads(lines[-1])
    rec["parent"] = 99
    lines[-1] = json.dumps(rec) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(BankError, match=f"{path}:{len(lines)}: unknown parent 99"):
        load_bank(tmp_path)


def test_manifest_without_token_ids_reuses_no_unverifiable_row(tmp_path, caplog):
    # a bank persisted before token ids were kept: its slices open as
    # evicted, with a warning, and nothing below the root is refilled,
    # since refill goes by kept ids alone. Such banks also predate the
    # stamp, so Engine drops their tree at open
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    bank.persist()
    manifest = tmp_path / "manifest.jsonl"
    records = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
    assert all(r["token_ids"] for r in records)
    manifest.write_text("".join(
        json.dumps({k: v for k, v in r.items() if k != "token_ids"}, sort_keys=True) + "\n"
        for r in records), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        loaded = load_bank(tmp_path)
    assert len([r for r in caplog.records if "no token ids" in r.getMessage()]) == 3
    assert not any(n.present for n in loaded.nodes.values())
    assert loaded.used_bytes == 0
    assert _match(loaded, ["c1", "c2"], now=2) == (None, 0, 0)
    # the never-written root is written; its first child has no ids, so
    # the plan stops there
    assert insert_path(loaded, ["c1", "c2"], now=3) == [loaded.root.node_id]
    assert loaded.root.token_ids == bank.root.token_ids
    assert [n.token_ids for n in loaded.nodes.values() if n is not loaded.root] == [None, None]
    assert loaded.used_bytes == loaded.root.byte_size
    prefix, matched, _ = _match(loaded, ["c1", "c2"], now=4)
    assert matched == 0 and prefix.prefix_token_count == len(loaded.root.token_ids)


def test_manifest_with_damaged_token_ids_raises(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1"], now=1)
    bank.persist()
    manifest = tmp_path / "manifest.jsonl"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    for bad in ("abc", [1, "2"], [1.5], 7):
        lines[1] = json.dumps({**rec, "token_ids": bad}, sort_keys=True)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(BankError, match=r"manifest.jsonl:2: token_ids"):
            load_bank(tmp_path)
    # ids that do not fit the slice degrade it to evicted
    lines[1] = json.dumps({**rec, "token_ids": rec["token_ids"][:-1]}, sort_keys=True)
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_bank(tmp_path)
    assert loaded.root.present and not loaded.nodes[rec["id"]].present


def _dir_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_load_holds_slices_to_limit(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    insert_path(bank, ["c1", "c9"], now=2)
    bank.persist()
    limit = bank.used_bytes // 2

    loaded = load_bank(tmp_path, limit_bytes=limit)
    assert loaded.limit_bytes == limit
    assert 0 < loaded.used_bytes <= limit
    assert loaded.used_bytes == sum(n.byte_size for n in loaded.nodes.values() if n.present)
    evicted = [n for n in loaded.nodes.values() if not n.present]
    assert evicted
    # an evicted node keeps the ids a later restoration prefills
    for node in evicted:
        assert node.token_ids == bank.nodes[node.node_id].token_ids
    loaded.persist()
    assert {p.name for p in loaded.slice_dir.glob("*.qkv")} == {
        f"node{n.node_id}.qkv" for n in loaded.nodes.values() if n.present
    }


def test_load_degrades_corrupt_slice(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    bank.persist()
    c2 = next(n for n in bank.nodes.values() if n.chunk_id == "c2")
    (bank.slice_dir / f"node{c2.node_id}.qkv").write_bytes(b"garbage")
    loaded = load_bank(tmp_path)
    assert not loaded.nodes[c2.node_id].present
    assert loaded.nodes[c2.node_id].token_ids == c2.token_ids
    assert loaded.used_bytes == sum(
        n.byte_size for n in loaded.nodes.values() if n.present
    )


def test_load_degrades_missing_slice(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1"], now=1)
    bank.persist()
    c1 = next(n for n in bank.nodes.values() if n.chunk_id == "c1")
    (bank.slice_dir / f"node{c1.node_id}.qkv").unlink()
    loaded = load_bank(tmp_path)
    assert not loaded.nodes[c1.node_id].present
    assert loaded.root.present


def test_persist_interrupted_before_manifest_keeps_old_bank(tmp_path, monkeypatch, caplog):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1", "c2"], now=1)
    insert_path(bank, ["c3"], now=2)
    bank.persist()
    listed = {n.node_id for n in bank.nodes.values() if n.present}
    manifest = (tmp_path / "manifest.jsonl").read_bytes()
    # evict, insert new slices, then fail the manifest rename
    assert bank.set_limit(bank.used_bytes // 2)
    insert_path(bank, ["c4"], now=4)
    real_replace = os.replace

    def failing_replace(src, dst):
        if Path(dst).name == "manifest.jsonl":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        bank.persist()
    monkeypatch.undo()
    assert (tmp_path / "manifest.jsonl").read_bytes() == manifest
    assert not list(tmp_path.rglob("*.tmp"))
    with caplog.at_level(logging.WARNING):
        loaded = load_bank(tmp_path)
    assert not caplog.records
    assert {n.node_id for n in loaded.nodes.values() if n.present} == listed


def test_set_limit_grow_no_eviction(tmp_path):
    bank = fake_bank(tmp_path)
    insert_path(bank, ["c1"], now=1)
    assert bank.set_limit(bank.limit_bytes * 2) == []
