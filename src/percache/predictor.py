"""Dual-view query prediction.

Two independent views guess what the user will ask next: a knowledge
view prompting over a compact abstract of the ingested chunks, and a
history view prompting over a ring buffer of recent user queries. Both
run only during idle ticks (never on the query-serving path) and both
call the text backend with a template name and its slots.

Backend responses are parsed from the numbered "1. ...?; 2. ...?"
format; the parser is total and drops malformed items.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

TEMPLATE_SUMMARIZE = "summarize"
TEMPLATE_KNOWLEDGE = "knowledge_prediction"
TEMPLATE_HISTORY = "history_prediction"

DEFAULT_KB_KIND = "meeting record"

_MARKER_RE = re.compile(r"^\s*\d+\s*[.)]\s*")


def parse_numbered_list(text: str) -> list[str]:
    """Parse '1. ...?; 2. ...?' responses. Total: malformed items are
    dropped, any input yields a (possibly empty) list."""
    out = []
    for part in text.split("; "):
        item = _MARKER_RE.sub("", part.strip())
        item = item.strip().strip("'\"").strip()
        if item.endswith("?") and len(item) > 1:
            out.append(item)
    return out


@dataclass
class KnowledgeAbstract:
    """Running one-sentence-per-batch summary of the knowledge bank."""

    cap_bytes: int = 4096
    sentences: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.sentences)

    @property
    def byte_len(self) -> int:
        return len(self.text.encode("utf-8"))


class PhaseError(AssertionError):
    """A background-only operation ran on the query-serving path."""


class Predictor:
    """Owns the abstract, the query buffer, and the two prediction views.

    Mutating operations run only while the engine is in its background
    phase (single writer). `phase` is the engine's only serve/idle flag:
    handle_query sets it to "serve" for the length of a query, and the
    summarization and prediction calls assert it is "idle".
    """

    def __init__(
        self,
        backend,
        stride: int = 5,
        abstract_cap_bytes: int = 4096,
        buffer_size: int = 20,
        t_batch: float = 600.0,
        t_quiet: float = 300.0,
    ):
        if buffer_size < 1:
            raise ValueError("buffer size must be positive")
        self.backend = backend
        self.stride = stride
        self.t_batch = t_batch
        self.t_quiet = t_quiet
        self.abstract = KnowledgeAbstract(abstract_cap_bytes)
        self.buffer: deque[str] = deque(maxlen=buffer_size)  # recent user queries
        self.phase = "idle"
        self.parse_failures = 0
        self._pending: list = []  # chunks awaiting summarization, a missed batch first
        self._last_chunk_at: float | None = None
        self._last_query_at: float | None = None
        self._abstract_dirty = False  # the abstract changed since the last knowledge prediction
        self._history_dirty = False

    def _assert_idle(self) -> None:
        if self.phase != "idle":
            raise PhaseError("prediction work attempted during query serving")

    # -- triggers ------------------------------------------------------------

    def note_chunks(self, chunks, at: float) -> None:
        self._pending.extend(chunks)
        self._last_chunk_at = at

    def note_user_query(self, text: str, at: float) -> None:
        self.buffer.append(text)
        self._last_query_at = at
        self._history_dirty = True

    def batch_ready(self, now: float) -> bool:
        """New chunks pending and none arrived for t_batch."""
        return bool(self._pending) and (
            self._last_chunk_at is None or now - self._last_chunk_at >= self.t_batch
        )

    def knowledge_ready(self) -> bool:
        """The abstract changed since the last knowledge prediction."""
        return self._abstract_dirty and bool(self.abstract.sentences)

    def history_ready(self, now: float) -> bool:
        """New user queries arrived and then t_quiet passed with none."""
        return (
            self._history_dirty
            and bool(self.buffer)
            and self._last_query_at is not None
            and now - self._last_query_at >= self.t_quiet
        )

    # -- abstract maintenance -------------------------------------------------

    def update_abstract(self, now: float) -> bool:
        """Summarize the pending chunk batch into one more abstract sentence.

        On a backend miss the batch stays pending for a retry and the
        abstract is unchanged. If the cap would be exceeded, the whole
        abstract is re-summarized through the same prompt exactly once (then
        hard byte-truncated as a last resort). Returns True if it changed,
        and then the knowledge view is ready to predict again.
        """
        self._assert_idle()
        if not self._pending:
            return False
        chunk_text = " ".join(c.text for c in self._pending)
        response = self.backend.generate(TEMPLATE_SUMMARIZE, {"chunks": chunk_text}).strip()
        if not response:
            return False  # chunks noted later join the batch behind it
        self._pending = []
        self.abstract.sentences.append(response)
        if self.abstract.byte_len > self.abstract.cap_bytes:
            merged = self.backend.generate(
                TEMPLATE_SUMMARIZE, {"chunks": self.abstract.text}
            ).strip()
            if merged:
                self.abstract.sentences = [merged]
            while self.abstract.byte_len > self.abstract.cap_bytes and self.abstract.sentences:
                last = self.abstract.sentences[-1]
                trimmed = last.encode("utf-8")[: max(0, self.abstract.cap_bytes - 1)]
                self.abstract.sentences[-1] = trimmed.decode("utf-8", errors="ignore")
                if not self.abstract.sentences[-1]:
                    self.abstract.sentences.pop()
        self._abstract_dirty = True
        return True

    # -- prediction views ------------------------------------------------------

    def _predict(self, template: str, slots: dict) -> tuple[str, ...]:
        """Up to stride questions from one prompt; a non-empty response
        that yields none counts as a parse failure."""
        slots = {"kb_kind": DEFAULT_KB_KIND, **slots, "stride": str(self.stride)}
        response = self.backend.generate(template, slots)
        queries = parse_numbered_list(response)[: self.stride]
        if response and not queries:
            self.parse_failures += 1
        return tuple(queries)

    def predict_from_knowledge(self) -> tuple[str, ...]:
        self._assert_idle()
        if not self.abstract.sentences:
            raise ValueError("abstract is empty")
        queries = self._predict(TEMPLATE_KNOWLEDGE, {"abstract": self.abstract.text})
        self._abstract_dirty = False
        return queries

    def predict_from_history(self, known_query: "callable") -> tuple[str, ...]:
        """known_query(text) -> bool filters predictions already in the QA bank."""
        self._assert_idle()
        if not self.buffer:
            raise ValueError("query buffer is empty")
        queries = self._predict(TEMPLATE_HISTORY, {"history": "; ".join(self.buffer)})
        self._history_dirty = False
        return tuple(q for q in queries if not known_query(q))
