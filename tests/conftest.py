import json
import signal
import zlib
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from percache.backend import QkvTensors, ToyModel
from percache.config import EngineConfig
from percache.engine import Engine
from percache.knowledge import KnowledgeBank, Segment, read_utf8
from percache.textcore import Embedding, TokenizerVocab, count_dtype, tokenize

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "data"
DEFAULT_CONFIG = EngineConfig()

# seconds any one test may run; far above the slowest test, so only a hang
# reaches it
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def watchdog(request):
    """Fail the test, by name, once it has run TEST_TIME_LIMIT_S seconds of
    wall-clock time, so a hang ends with a failure instead of blocking the
    run. Restores the previous SIGALRM handler afterwards."""

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def data_dir() -> Path:
    return DATA


def count_ints(counts) -> list:
    """Counts as Python integers, whichever dtype holds them."""
    return np.asarray(counts).astype(np.int64).tolist()


def embedding_from_counts(counts) -> Embedding:
    """The embedding of an integer count vector, as HashEmbedder.embed
    builds one: its squared norm summed in Python integers, the counts in
    count_dtype of it. The counts must be integers and the squared norm in
    (0, 2**53), where the cosines are exact."""
    c = np.asarray(counts, dtype=np.float64)
    ints = [int(x) for x in c.ravel().tolist()]
    assert c.ndim == 1 and ints == c.tolist(), "counts must be a vector of integers"
    norm2 = sum(x * x for x in ints)
    assert 0 < norm2 < 2**53, f"squared norm {norm2} is not in (0, 2**53)"
    return Embedding(c.astype(count_dtype(norm2)), norm2)


def ladder_dtype(norm2: int) -> np.dtype:
    """The count dtype of a squared norm, spelled out: int8 up to 127**2,
    int16 up to 32767**2, int64 above; a count is at most sqrt(norm2)."""
    return np.dtype(np.int8 if norm2 <= 127**2 else np.int16 if norm2 <= 32767**2 else np.int64)


def reference_tokenize(text: str, vocab: TokenizerVocab) -> tuple[int, ...]:
    """The greedy longest match as a plain loop over the vocabulary's
    explicit tokens: at each byte offset, every token length in descending
    order that fits the rest, one slice and one lookup each; no match takes
    the byte's own id."""
    explicit = vocab.size - 256
    ids = {vocab.token_bytes(i): i for i in range(explicit)}
    lengths = sorted({len(b) for b in ids}, reverse=True)
    data, tokens, pos = text.encode("utf-8"), [], 0
    while pos < len(data):
        for length in lengths:
            if length <= len(data) - pos and data[pos : pos + length] in ids:
                tokens.append(ids[data[pos : pos + length]])
                pos += length
                break
        else:
            tokens.append(explicit + data[pos])
            pos += 1
    return tuple(tokens)


def load_trace(name: str) -> list[dict]:
    path = DATA / "traces" / name
    return [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines() if l.strip()]


def checked_prefill(seen: list):
    """ToyModel.prefill wrapped to check contract 1 at every prefill from a
    cached prefix, whoever calls it: its K/V rows of every layer and its
    last hidden state must equal, bit for bit, those of a prefill of the
    whole prompt. That covers every Q that matters: each layer's K/V but
    the first depend on the Q of every row in the layer before, and the
    hidden state on the last row's Q in every layer. Appends
    each checked prefix's token count to seen. The reference prefill leaves
    mac_count as it was."""
    prefill = ToyModel.prefill

    def checked(self, tokens, prefix=None):
        state = prefill(self, tokens, prefix)
        if prefix is not None:
            macs = self.mac_count
            full = prefill(self, tokens)
            self.mac_count = macs
            pre = prefix.prefix_token_count
            assert state.tensors.data.tobytes() == full.tensors.data.tobytes(), pre
            assert state.last_hidden.tobytes() == full.last_hidden.tobytes(), pre
            seen.append(pre)
        return state

    return checked


def make_engine(tmp_path, **overrides) -> Engine:
    defaults = dict(chunk_words=12, max_decode_tokens=6, t_batch=1e9, t_quiet=1e9)
    defaults.update(overrides)
    return Engine(EngineConfig(**defaults), tmp_path)


# -- synthetic-tensor helpers for tree tests --------------------------------
# Tensors whose values depend on the full text prefix (like real attention
# outputs do) but cost nothing to compute: value = crc32 of the text up to
# each token's end byte, which the vocabulary fixes.

FAKE_HEADS = 1
FAKE_HEAD_DIM = 2


def fake_bank(tmp_path, limit_bytes=1 << 22, vocab=None) -> KnowledgeBank:
    """A new bank in tmp_path, with an empty vocabulary unless vocab is
    given, and EngineConfig's default chunk size."""
    vocab = TokenizerVocab([]) if vocab is None else vocab
    return KnowledgeBank(tmp_path, vocab, limit_bytes, DEFAULT_CONFIG.chunk_words)


def load_bank(directory, limit_bytes=DEFAULT_CONFIG.qkv_limit_bytes) -> KnowledgeBank:
    """KnowledgeBank.load of directory with its own vocab.txt and
    EngineConfig's default chunk size."""
    vocab = TokenizerVocab.from_text(read_utf8(Path(directory) / "vocab.txt"))
    return KnowledgeBank.load(directory, vocab, limit_bytes, DEFAULT_CONFIG.chunk_words)


def path_segments(path: list[str], query: str = "q") -> list[Segment]:
    segs = [Segment("S\n")]
    for cid in path:
        segs.append(Segment(cid + " ", cid))
    segs.append(Segment(query))
    return segs


def fake_tensors(text: str, tokens: tuple[int, ...], vocab: TokenizerVocab) -> QkvTensors:
    n = len(tokens)
    data = text.encode("utf-8")
    ends = accumulate(len(vocab.token_bytes(t)) for t in tokens)
    vals = np.array([zlib.crc32(data[:end]) % 9973 for end in ends], dtype=np.float32)
    base = np.broadcast_to(
        vals.reshape(n, 1, 1), (n, FAKE_HEADS, FAKE_HEAD_DIM)
    ).astype(np.float32)
    return QkvTensors(np.stack([base, base + 1.0])[None])


def path_tokens(bank: KnowledgeBank, path: list[str], query: str = "q") -> tuple[int, ...]:
    """Token ids of the prompt over path, as match_prefix takes them."""
    return tokenize("".join(s.text for s in path_segments(path, query)), bank.vocab)


def insert_path(bank: KnowledgeBank, path: list[str], now: int, query: str = "q"):
    segs = path_segments(path, query)
    text = "".join(s.text for s in segs)
    toks = tokenize(text, bank.vocab)
    return bank.slice_and_insert(segs, toks, fake_tensors(text, toks, bank.vocab), now)
