"""Engine configuration: a flat key=value file mapped onto one dataclass.

Unknown keys are an error (typos should fail loudly). Values are parsed
by the declared field type; booleans accept true/false/1/0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .knowledge import encodes_utf8, read_utf8
from .qa import DEFAULT_ENTRY_BYTES
from .retrieval import DEFAULT_ALPHA
from .textcore import split_lines


class ConfigError(ValueError):
    """Malformed config file or unknown/invalid key."""


@dataclass
class EngineConfig:
    # QA match threshold
    tau_query: float = 0.85
    # prediction
    prediction_stride: int = 5
    t_batch: float = 600.0
    t_quiet: float = 300.0
    # chunking
    chunk_words: int = 100
    # cache tree
    qkv_limit_bytes: int = 1 << 34
    qa_limit_bytes: int = 1 << 22
    # behavior toggles
    qa_enabled: bool = True
    reuse_enabled: bool = True
    scheduler_enabled: bool = True
    # canned predictor/summarizer responses (empty: none)
    script_file: str = ""
    vocab_file: str = ""
    system_prompt: str = "Answer from personal notes:\n"
    # toy model shape and decoding
    model_layers: int = 2
    model_heads: int = 2
    model_head_dim: int = 8
    max_decode_tokens: int = 8
    seed: int = 0x7031
    # cost model
    flops_per_ms: float = 1e6
    latency_scale: float = 1.0
    # fixed charges in model ms, not keys: the measured per-operation
    # latencies of the reference deployment, scaled by latency_scale
    question_match_ms: ClassVar[float] = 1610.0
    qkv_match_ms: ClassVar[float] = 15.0
    qkv_load_ms: ClassVar[float] = 1030.0
    embed_ms: ClassVar[float] = 40.0
    # not keys either, as nothing sets another value
    k_refresh: ClassVar[int] = 3  # the rank of every QA entry's refresh bar
    alpha_fusion: ClassVar[float] = DEFAULT_ALPHA  # BM25's weight in the fused retrieval score
    retrieval_k: ClassVar[int] = 3  # the chunks each query retrieves
    tau_scheduler: ClassVar[float] = 0.88  # population_decodes' cutoff for tau_query
    buffer_size: ClassVar[int] = 20  # the recent queries the history view prompts over
    abstract_cap_bytes: ClassVar[int] = 4096  # the abstract's cap in UTF-8 bytes

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.tau_query <= 1.0:
            raise ConfigError("tau_query must be in [0, 1]")
        for key in (
            "prediction_stride",
            "chunk_words",
            "max_decode_tokens",
            "model_layers",
            "model_heads",
            "model_head_dim",
        ):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be a positive integer")
        if self.model_head_dim % 2:
            raise ConfigError("model_head_dim must be even (rotary pairs)")
        if self.qkv_limit_bytes < 1:
            raise ConfigError("qkv_limit_bytes must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be at least 0")
        for key in ("t_batch", "t_quiet"):
            if not getattr(self, key) >= 0.0:
                raise ConfigError(f"{key} must be at least 0 (inf: never)")
        if self.qa_limit_bytes < DEFAULT_ENTRY_BYTES:
            raise ConfigError(f"qa_limit_bytes must hold one entry ({DEFAULT_ENTRY_BYTES} bytes)")
        if not self.flops_per_ms > 0.0:
            raise ConfigError("flops_per_ms must be positive")
        if not 0.0 <= self.latency_scale < math.inf:
            raise ConfigError("latency_scale must be finite and at least 0")
        for key in ("script_file", "vocab_file", "system_prompt"):
            if not encodes_utf8(getattr(self, key)):
                raise ConfigError(f"{key} holds a lone surrogate, which UTF-8 cannot encode")

    def apply(self, key: str, raw: str) -> None:
        """Set one field from its textual form; used for config_change events."""
        fields = {f.name: f for f in dataclasses.fields(self)}
        if key not in fields:
            raise ConfigError(f"unknown config key: {key}")
        ftype = fields[key].type
        try:
            if ftype == "bool":
                low = raw.strip().lower()
                if low in ("true", "1"):
                    value = True
                elif low in ("false", "0"):
                    value = False
                else:
                    raise ValueError(raw)
            elif ftype == "int":
                value = int(raw.strip(), 0)
            elif ftype == "float":
                value = float(raw.strip())
            else:
                # allow literal \n in string values (system_prompt ends with one)
                value = raw.replace("\\n", "\n")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        old = getattr(self, key)
        setattr(self, key, value)
        try:
            self.validate()
        except ConfigError:
            setattr(self, key, old)
            raise

    @classmethod
    def from_file(cls, path) -> "EngineConfig":
        cfg = cls()
        path = Path(path)
        for lineno, line in enumerate(split_lines(read_utf8(path)), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            # only spaces and tabs pad a key or value; "\f", U+00A0 and U+2028 stay
            key, _, raw = line.partition("=")
            try:
                cfg.apply(key.strip(" \t"), raw.strip(" \t"))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        # file paths in a config are relative to the config's directory
        for key in ("script_file", "vocab_file"):
            value = getattr(cfg, key)
            if value and not Path(value).is_absolute():
                setattr(cfg, key, str(path.parent / value))
        return cfg
