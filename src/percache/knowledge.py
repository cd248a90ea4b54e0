"""Chunk store plus the QKV cache tree.

Tree nodes hold per-chunk K/V tensor slices; a root-to-node path mirrors
the retrieved-chunk order of a past prompt. Each node also keeps the token
ids of its segment in the prompt that wrote it. Because the tokenizer is
greedy and boundary-dependent, two prompts sharing a chunk prefix can
tokenize the shared region differently near a seam, so reuse is bounded by
token ids, not by chunk ids:

* on match, the reused prefix is the longest common prefix of the matched
  chain's token ids and the new prompt's. It is exact, because row i of a
  slice depends only on tokens 0..i;
* on insert, a node is written only below nodes whose kept ids equal the
  prompt's, so every node's rows were computed after its ancestors' ids,
  and an evicted node is refilled only when its own kept ids match too;
* on insert, paths are merged only up to the second-to-last common node,
  so the last common node is duplicated per path. This does not guard
  correctness; it decides how deep each path can reuse.

Eviction is LFU over per-node retrieval counts under a byte budget; an
evicted node keeps its metadata and token ids. Those ids are the only
refill rule: a cached prefill equals recomputation bit for bit, so rows
computed from the same root-path ids are the evicted rows. Idle
restoration reads only kept ids, so it counts no user retrieval: the
engine admits nodes one by one, each charged as if restored alone, and
prefills the kept ids of each chain of admitted nodes down a root path
at once; hold gives each node its own rows. A slice_and_insert of a
prompt whose ids match the node's root path refills it the same way.

used_bytes is the sum of byte_size over the present nodes, at most
limit_bytes: only hold charges a slice (slice_and_insert, load and the
engine's restoration call it), and only _evict_node and drop_tree
release one.

Nodes hold their slices as QkvTensors. The slice file format is only the
bank's disk boundary: persist writes it and load reads and validates it.
Only persist writes the bank directory and only load reads it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from types import NoneType

import numpy as np

from .backend import QkvPrefix, QkvTensors
# unused here, but perfbench patches knowledge.tokenize through this module's globals
from .textcore import TokenizerVocab, encodes_utf8, split_lines, tokenize  # noqa: F401

log = logging.getLogger(__name__)

SLICE_MAGIC = b"PQKV"
SLICE_VERSION = 2
SYSTEM_CHUNK_ID = ""


class StorageError(RuntimeError):
    """Storage budget cannot be satisfied."""


class LayoutError(ValueError):
    """Prompt layout does not tile the token sequence."""


class BankError(ValueError):
    """An input file (bank, trace, corpus) is damaged; the message names
    file:line."""


def read_utf8(path: Path) -> str:
    """The text of path; bytes that are not UTF-8 raise BankError naming
    file:line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise BankError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from exc


# the JSON types read_jsonl checks fields against, by the Python type that
# json.loads gives each; exact types, so a boolean never passes for an integer
JSON_TYPES = {str: "a string", int: "an integer", bool: "a boolean", NoneType: "null"}


def is_number(value) -> bool:
    """A JSON number a trace can order or budget by, or a report can average:
    not NaN, not a boolean. Infinity passes."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


def read_jsonl(path: Path,
               fields: dict[str, tuple[type, ...]] | None = None) -> list[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file. A line
    that is not UTF-8 or not a JSON object, that lacks a key of fields or
    holds it with a type not in fields[key], or whose string under such a
    key UTF-8 cannot encode, raises BankError naming file:line."""
    out = []
    for lineno, line in enumerate(split_lines(read_utf8(path)), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BankError(f"{path}:{lineno}: malformed line: {exc}") from exc
        if not isinstance(rec, dict):
            raise BankError(f"{path}:{lineno}: need a JSON object")
        for key, types in (fields or {}).items():
            if key not in rec or type(rec[key]) not in types:
                names = " or ".join(JSON_TYPES[t] for t in types)
                raise BankError(f"{path}:{lineno}: need {key!r} as {names}")
            if type(rec[key]) is str and not encodes_utf8(rec[key]):
                raise BankError(f"{path}:{lineno}: {key!r} is a string UTF-8 cannot encode")
        out.append((lineno, rec))
    return out


def write_atomic(path: Path, data: bytes) -> None:
    """Replace path with data: write a temporary file beside it, then rename
    it into place, so readers see the old bytes or the new, never a part."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def chunk_words(text: str, words_per_chunk: int) -> list[str]:
    """Split text into fixed-word-count segments with canonical spacing."""
    words = text.split()
    return [
        " ".join(words[i : i + words_per_chunk])
        for i in range(0, len(words), words_per_chunk)
    ]


def content_hash(text: str) -> bytes:
    return hashlib.sha256(text.encode("utf-8")).digest()


@dataclass(frozen=True)
class Segment:
    """One prompt-layout element. A layout is positional: the system prompt
    first, the query last, the retrieved chunks between."""

    text: str
    chunk_id: str | None = None


# ---------------------------------------------------------------------------
# slice file format v2 (binary, little-endian): magic "PQKV", u16 version,
# u16 layers, u16 heads, u16 head_dim, u32 token_count (16 bytes), then
# QkvTensors.data as f32 in C order: per layer K, V, each (token, head, dim).

_HEADER = struct.Struct("<4sHHHHI")


def serialize_slice(tensors: QkvTensors) -> bytes:
    layers, _, tokens, heads, head_dim = tensors.data.shape
    header = _HEADER.pack(SLICE_MAGIC, SLICE_VERSION, layers, heads, head_dim, tokens)
    return header + tensors.data.astype("<f4", copy=False).tobytes()


def deserialize_slice(data: bytes) -> QkvTensors:
    if len(data) < _HEADER.size:
        raise ValueError("slice payload shorter than header")
    magic, version, layers, heads, head_dim, tokens = _HEADER.unpack_from(data)
    if magic != SLICE_MAGIC or version != SLICE_VERSION:
        raise ValueError("bad slice magic/version")
    shape = (layers, 2, tokens, heads, head_dim)
    if len(data) != slice_bytes(layers, tokens, heads, head_dim):
        raise ValueError("slice payload length mismatch")
    payload = np.frombuffer(data, dtype="<f4", offset=_HEADER.size).reshape(shape)
    return QkvTensors(payload.astype(np.float32))


def slice_bytes(layers: int, tokens: int, heads: int, head_dim: int) -> int:
    """len(serialize_slice(...)) of a slice of that shape."""
    return _HEADER.size + 4 * layers * 2 * tokens * heads * head_dim


def slice_size(tensors: QkvTensors) -> int:
    """len(serialize_slice(tensors)), from the shape alone."""
    layers, _, tokens, heads, head_dim = tensors.data.shape
    return slice_bytes(layers, tokens, heads, head_dim)


# ---------------------------------------------------------------------------


@dataclass
class CacheTreeNode:
    node_id: int
    chunk_id: str
    parent: "CacheTreeNode | None"
    children: list = field(default_factory=list)
    tensors: QkvTensors | None = field(default=None, repr=False)  # the slice; copied in and out
    # serialized slice length, kept past eviction; set with the slice by
    # hold, and counted in used_bytes while the node is present
    byte_size: int = 0
    retrieval_count: int = 0
    last_used: int = 0
    # the segment's token ids in the prompt that wrote the slice; kept past
    # eviction, None if never written
    token_ids: tuple[int, ...] | None = None

    @property
    def present(self) -> bool:
        return self.tensors is not None


class KnowledgeBank:
    """Chunk store + QKV cache tree, persisted to a bank directory.

    Not safe for concurrent use: besides insert/evict/persist, match_prefix
    also writes (it bumps retrieval_count and last_used on every matched
    node), so every tree operation needs exclusive access.
    """

    def __init__(self, directory, vocab: TokenizerVocab, limit_bytes: int,
                 chunk_words_count: int):
        self.directory = Path(directory)
        self.slice_dir = self.directory / "slices"
        self.vocab = vocab
        self.chunk_words_count = chunk_words_count
        self.used_bytes = 0  # the byte_size of every present node
        self.limit_bytes = limit_bytes
        self.chunks: dict[str, str] = {}  # chunk id -> text
        self._text_to_id: dict[str, str] = {}
        self.root = CacheTreeNode(0, SYSTEM_CHUNK_ID, None)
        self.nodes: dict[int, CacheTreeNode] = {0: self.root}
        self._next_node_id = 1
        self.stamp = None  # in the root's manifest record; see Engine._check_stamp

    # -- chunk store --------------------------------------------------------

    def ingest_text(self, text: str) -> list[str]:
        """Chunk and store; returns the chunk ids. Identical text maps to
        the same chunk id."""
        out = []
        for part in chunk_words(text, self.chunk_words_count):
            existing = self._text_to_id.get(part)
            if existing is not None:
                out.append(existing)
                continue
            base = content_hash(part).hex()[:16]
            chunk_id = base
            suffix = 0
            while chunk_id in self.chunks:
                suffix += 1
                chunk_id = f"{base}-{suffix}"
            self.chunks[chunk_id] = part
            self._text_to_id[part] = chunk_id
            out.append(chunk_id)
        return out

    def fits(self, incoming_bytes: int) -> bool:
        return self.used_bytes + incoming_bytes <= self.limit_bytes

    # -- layout helpers -----------------------------------------------------

    def segment_token_spans(self, segments: list[Segment],
                            tokens: tuple[int, ...]) -> list[tuple[int, int]]:
        """Token span per segment; a token belongs to the segment containing
        its start byte (a straddling token stays with the earlier segment).
        Each token's bytes come from the vocabulary."""
        starts = list(accumulate((len(self.vocab.token_bytes(t)) for t in tokens), initial=0))
        byte_bounds = list(accumulate((len(seg.text.encode("utf-8")) for seg in segments),
                                      initial=0))
        if starts[-1] != byte_bounds[-1]:
            raise LayoutError("layout does not tile the token byte range")
        # a segment ends before the first token that starts at or past its
        # end byte; no token is empty, so the last segment ends at the last token
        ends = [bisect_left(starts, bound, 0, len(tokens)) for bound in byte_bounds]
        return list(zip(ends, ends[1:]))

    # -- tree operations ----------------------------------------------------

    def _match_chain(self, chunk_ids: list[str], require_present: bool) -> list[CacheTreeNode]:
        """Longest chain under the root matching the chunk id list; duplicates
        are disambiguated by looking ahead for the deepest continuation."""

        def best(node: CacheTreeNode, i: int) -> list[CacheTreeNode]:
            if i >= len(chunk_ids):
                return []
            top: list[CacheTreeNode] = []
            for child in node.children:
                if child.chunk_id != chunk_ids[i]:
                    continue
                if require_present and not child.present:
                    continue
                chain = [child] + best(child, i + 1)
                if len(chain) > len(top):
                    top = chain
            return top

        return best(self.root, 0)

    def _new_node(self, parent: CacheTreeNode, chunk_id: str) -> CacheTreeNode:
        node = CacheTreeNode(self._next_node_id, chunk_id, parent)
        self._next_node_id += 1
        parent.children.append(node)
        self.nodes[node.node_id] = node
        return node

    def slice_and_insert(
        self,
        segments: list[Segment],
        tokens: tuple[int, ...],
        qkv: QkvTensors,
        now: int,
    ) -> list[int]:
        """Slice full-prompt tensors per segment and merge the chunk path
        into the tree; segments is a positional layout (see Segment).
        All-or-nothing: on layout or budget failure nothing is written.
        Returns node ids whose slices were written."""
        if qkv.token_count != len(tokens):
            raise LayoutError("qkv token count does not match the token sequence")
        spans = self.segment_token_spans(segments, tokens)

        # plan every write before changing anything. Slots: the root, the
        # spine up to the second-to-last common node (the last one is
        # duplicated per path), then None per node to create; none for the query
        chunk_ids = [s.chunk_id for s in segments[1:-1]]
        chain = self._match_chain(chunk_ids, require_present=False)
        if len(chain) < len(chunk_ids):
            chain = chain[: max(len(chain) - 1, 0)]
        slots = [self.root] + chain + [None] * (len(chunk_ids) - len(chain))
        plan: list[tuple[CacheTreeNode | None, str | None, QkvTensors, tuple[int, ...]]] = []
        for node, seg, (start, end) in zip(slots, segments, spans):
            ids = tokens[start:end]
            # a never-written root has no ids and is written; any other node
            # whose kept ids differ stops the plan, since it and the nodes
            # below hold rows computed after other ids. A matching absent
            # node is refilled: equal root-path ids give bit-equal rows
            if node is not None and (node.token_ids is not None or node is not self.root):
                if node.token_ids != ids:
                    break
                if node.present:
                    continue
            plan.append((node, seg.chunk_id, qkv.slice_tokens(start, end), ids))

        self.evict_to_fit(sum(slice_size(tensors) for _, _, tensors, _ in plan))

        written_ids: list[int] = []
        parent = slots[-1 - slots.count(None)]  # the deepest existing node
        for node, chunk_id, tensors, ids in plan:
            if node is None:
                node = parent = self._new_node(parent, chunk_id)
            node.last_used, node.token_ids = now, ids
            self.hold(node, tensors)
            written_ids.append(node.node_id)
        return written_ids

    def match_prefix(self, retrieved: list[str], token_ids: tuple[int, ...],
                     now: int) -> tuple[QkvPrefix | None, int, int]:
        """The cached prefix of a prompt over the retrieved chunk ids whose
        token ids are token_ids. Walks the tree along retrieved and reuses
        the longest common prefix of the matched chain's kept token ids and
        token_ids: whole nodes are compared first, and only the first node
        that differs is scanned token by token. The chain is cut to the
        nodes that prefix reaches; only those are counted, LFU-bumped and
        loaded. Returns (prefix, matched chunk count, discarded), where
        discarded counts the loaded nodes' cached tokens that are not
        reused; (None, 0, 0) when no token is reused."""
        if not self.root.present:
            return None, 0, 0
        reached: list[CacheTreeNode] = []
        cached = l_pre = 0
        for node in [self.root] + self._match_chain(retrieved, require_present=True):
            ids = node.token_ids
            if token_ids[l_pre : l_pre + len(ids)] == ids:
                common = len(ids)
            else:  # the first differing token, or the end of the shorter
                common = next((i for i, (a, b) in enumerate(zip(ids, token_ids[l_pre:])) if a != b),
                              min(len(ids), len(token_ids) - l_pre))
            if common or not ids:
                reached.append(node)
                cached += len(ids)
                l_pre += common
            if common < len(ids):
                break
        if l_pre == 0:
            return None, 0, 0
        for node in reached:
            node.retrieval_count += 1
            node.last_used = now
        parts = [node.tensors for node in reached]
        last = parts[-1].data
        parts[-1] = QkvTensors(last[:, :, : last.shape[2] - (cached - l_pre)])  # a view
        tensors = QkvTensors.concat(parts)  # a copy: stored arrays never leave the bank
        return QkvPrefix(tensors, l_pre), len(reached) - 1, cached - l_pre

    def hold(self, node: CacheTreeNode, tensors: QkvTensors) -> None:
        """The one charge point: node holds tensors, byte_size becomes
        their serialized length, and used_bytes counts it. The caller has
        checked that they fit. Moves no LFU field."""
        node.tensors, node.byte_size = tensors, slice_size(tensors)
        self.used_bytes += node.byte_size

    def drop_tree(self) -> list[int]:
        """Drop every node, slices and metadata; the root starts unwritten
        and node ids keep counting. Returns the dropped ids."""
        dropped = sorted(self.nodes)
        self.root = CacheTreeNode(0, SYSTEM_CHUNK_ID, None)
        self.nodes = {0: self.root}
        self.used_bytes = 0
        return dropped

    def evict_to_fit(self, incoming_bytes: int) -> list[int]:
        """LFU eviction until incoming_bytes fit. Victims have minimal
        retrieval_count (ties: least-recent last_used, then chunk id, then
        node id): a prefix of the present nodes sorted by that key, which
        is unique, so each victim is the minimum of the nodes left.
        Evicting every node frees used_bytes whole. Evicted nodes stay in
        the tree with the slice absent."""
        if incoming_bytes > self.limit_bytes:
            raise StorageError("single item larger than the cache budget")
        evicted: list[int] = []
        if self.fits(incoming_bytes):
            return evicted
        for victim in sorted((n for n in self.nodes.values() if n.present),
                             key=lambda n: (n.retrieval_count, n.last_used, n.chunk_id, n.node_id)):
            self._evict_node(victim)
            evicted.append(victim.node_id)
            if self.fits(incoming_bytes):
                break
        return evicted

    def _evict_node(self, node: CacheTreeNode) -> None:
        self.used_bytes -= node.byte_size
        node.tensors = None

    def set_limit(self, limit_bytes: int) -> list[int]:
        """Change the byte budget; shrinking triggers immediate eviction."""
        self.limit_bytes = limit_bytes
        return self.evict_to_fit(0)

    # -- persistence --------------------------------------------------------

    def persist(self) -> None:
        """Write this bank to its directory, each file atomically: slices,
        then manifest.jsonl as the commit point, then unlink stale slices. A
        slice never changes once written (a refill recomputes it from the
        same kept ids), so the old manifest stays valid until the new one
        replaces it."""
        self.slice_dir.mkdir(parents=True, exist_ok=True)
        present = {_slice_name(n.node_id): n for n in self.nodes.values() if n.present}
        for name, node in present.items():
            write_atomic(self.slice_dir / name, serialize_slice(node.tensors))
        write_atomic(self.directory / "chunks.jsonl", jsonl_bytes(
            {"chunk_id": chunk_id, "text": text} for chunk_id, text in sorted(self.chunks.items())
        ))
        write_atomic(self.directory / "vocab.txt", self.vocab.to_text().encode("utf-8"))
        write_atomic(self.directory / "manifest.jsonl", jsonl_bytes(
            {
                "id": n.node_id,
                "parent": n.parent.node_id if n.parent else None,
                "chunk_id": n.chunk_id,
                "retrieval_count": n.retrieval_count,
                "last_used": n.last_used,
                "slice_file": _slice_name(n.node_id) if n.present else None,
                "byte_size": n.byte_size,
                "token_ids": None if n.token_ids is None else list(n.token_ids),
            } | ({"stamp": self.stamp} if n is self.root else {})
            for _, n in sorted(self.nodes.items())
        ))
        for path in self.slice_dir.glob("*.qkv"):
            if path.name not in present:
                path.unlink()

    @classmethod
    def load(cls, directory, vocab: TokenizerVocab, limit_bytes: int,
             chunk_words_count: int) -> "KnowledgeBank":
        """Open the bank persisted in directory (an empty bank if there is
        none) with vocab; engine.open_bank chooses it. Keys it does not
        read are ignored, such as the slice digest of older banks. A
        damaged manifest.jsonl or chunks.jsonl, a node id, chunk_id or
        chunk text on two of their lines, or a root record (no parent)
        whose id is not 0 or the reverse, raises BankError naming
        file:line; a missing or corrupt slice degrades to evicted, and so
        does a slice whose record has no token_ids (a bank written before
        they were kept), since its rows cannot be checked against a prompt;
        nor is such a node refilled, as a refill goes by kept ids alone. An
        evicted node's byte_size is not checked here, since a refill charges
        the rows it writes. A root record without a stamp key was written
        before the stamp and slice format v2, so none of its tree's slices
        is read: every node opens evicted, and Engine._check_stamp drops
        the tree. Slices beyond limit_bytes are evicted as set_limit
        would; a path that is a regular file, or lies below one, raises
        BankError."""
        directory = Path(directory)
        # the path itself, or its nearest existing ancestor, which persist would create it in
        if not next(p for p in (directory, *directory.parents) if p.exists()).is_dir():
            raise BankError(f"{directory}: not a directory")
        bank = cls(directory, vocab, limit_bytes, chunk_words_count)
        chunks_file = directory / "chunks.jsonl"
        if chunks_file.exists():
            for lineno, rec in read_jsonl(chunks_file, {"chunk_id": (str,), "text": (str,)}):
                if rec["chunk_id"] in bank.chunks:
                    raise BankError(f"{chunks_file}:{lineno}: duplicate chunk_id {rec['chunk_id']!r}")
                if rec["text"] in bank._text_to_id:
                    raise BankError(f"{chunks_file}:{lineno}: the text of chunk "
                                    f"{bank._text_to_id[rec['text']]!r} under another chunk_id")
                bank.chunks[rec["chunk_id"]] = rec["text"]
                bank._text_to_id[rec["text"]] = rec["chunk_id"]
        manifest = directory / "manifest.jsonl"
        if not manifest.exists():
            return bank
        records = read_jsonl(manifest, {
            "id": (int,), "parent": (int, NoneType), "chunk_id": (str,),
            "retrieval_count": (int,), "last_used": (int,), "slice_file": (str, NoneType),
            "byte_size": (int,),
        })
        records.sort(key=lambda r: r[1]["id"])  # stable: a repeated id keeps file order
        for (_, first), (lineno, rec) in zip(records, records[1:]):
            if first["id"] == rec["id"]:
                raise BankError(f"{manifest}:{lineno}: duplicate node id {rec['id']}")
        stamped = True
        for lineno, rec in records:
            # a second root, or a node that takes the root's id, would be charged twice
            if (rec["parent"] is None) != (rec["id"] == bank.root.node_id):
                raise BankError(f"{manifest}:{lineno}: only the root record, id 0, has no parent")
            if rec["parent"] is None:
                node, bank.stamp, stamped = bank.root, rec.get("stamp"), "stamp" in rec
            elif rec["parent"] in bank.nodes:
                parent = bank.nodes[rec["parent"]]
                node = CacheTreeNode(rec["id"], rec["chunk_id"], parent)
                parent.children.append(node)
            else:
                raise BankError(f"{manifest}:{lineno}: unknown parent {rec['parent']!r}")
            node.byte_size = rec["byte_size"]
            node.retrieval_count = rec["retrieval_count"]
            node.last_used = rec["last_used"]
            ids = rec.get("token_ids")
            if ids is not None:
                if not isinstance(ids, list) or not all(type(i) is int for i in ids):
                    raise BankError(f"{manifest}:{lineno}: token_ids must be a list of integers")
                node.token_ids = tuple(ids)
            bank.nodes[node.node_id] = node
            if rec["slice_file"] is None or not stamped:
                continue
            if node.token_ids is None:
                log.warning("slice for node %d has no token ids; treated as evicted", node.node_id)
                continue
            # a missing or corrupt slice degrades to evicted; the next
            # persist removes its file
            path = bank.slice_dir / _slice_name(node.node_id)
            try:
                data = path.read_bytes()
                tensors = deserialize_slice(data)
            except (OSError, ValueError):
                data = None
            if (data is None or len(data) != node.byte_size
                    or tensors.token_count != len(node.token_ids)):
                log.warning("slice for node %d unreadable; treated as evicted", node.node_id)
                continue
            bank.hold(node, tensors)
        bank._next_node_id = max(bank.nodes) + 1
        bank.set_limit(limit_bytes)  # a smaller budget than the bank holds evicts LFU
        return bank


def _slice_name(node_id: int) -> str:
    return f"node{node_id}.qkv"


# json.dumps(r, sort_keys=True) builds an encoder per record; this one is shared
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


def jsonl_bytes(records) -> bytes:
    """One sorted-key JSON object per line, as the bank files hold them."""
    return "".join(_SORTED_JSON.encode(r) + "\n" for r in records).encode("utf-8")
