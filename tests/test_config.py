import dataclasses

import pytest

from percache.config import ConfigError, EngineConfig


def test_defaults():
    cfg = EngineConfig()
    assert cfg.tau_query == 0.85
    assert cfg.prediction_stride == 5
    assert cfg.t_batch == 600.0
    assert cfg.t_quiet == 300.0
    assert cfg.chunk_words == 100
    # constants, not keys
    assert cfg.alpha_fusion == 0.5 and cfg.k_refresh == 3
    assert (cfg.retrieval_k, cfg.tau_scheduler, cfg.buffer_size, cfg.abstract_cap_bytes) == (
        3, 0.88, 20, 4096)
    assert len(dataclasses.fields(EngineConfig)) == 20


def test_validation():
    with pytest.raises(ConfigError):
        EngineConfig(tau_query=1.5)
    with pytest.raises(ConfigError):
        EngineConfig(qkv_limit_bytes=0)
    with pytest.raises(ConfigError):
        EngineConfig(flops_per_ms=0.0)
    with pytest.raises(ConfigError):
        EngineConfig(qa_limit_bytes=100)  # below one QA entry
    with pytest.raises(ConfigError):
        EngineConfig(chunk_words=0)
    with pytest.raises(ConfigError):
        EngineConfig(model_head_dim=3)  # rotary encoding rotates dimension pairs
    for key in ("model_layers", "prediction_stride"):
        with pytest.raises(ConfigError):
            EngineConfig(**{key: 0})
    with pytest.raises(ConfigError):
        EngineConfig(seed=-1)
    for value in (float("nan"), -1.0):
        for key in ("t_batch", "t_quiet"):
            with pytest.raises(ConfigError):
                EngineConfig(**{key: value})
    EngineConfig(t_batch=float("inf"), t_quiet=0.0, seed=0)  # inf: never
    for scale in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ConfigError):
            EngineConfig(latency_scale=scale)
    for key in ("system_prompt", "vocab_file", "script_file"):  # a lone surrogate
        with pytest.raises(ConfigError, match=f"{key} .*UTF-8"):
            EngineConfig(**{key: "notes \udfff"})


def test_apply_parses_by_type():
    cfg = EngineConfig()
    cfg.apply("tau_query", "0.9")
    cfg.apply("chunk_words", "5")
    cfg.apply("qa_enabled", "false")
    cfg.apply("reuse_enabled", "0")
    cfg.apply("system_prompt", "Hi:\\n")
    assert cfg.tau_query == 0.9 and cfg.chunk_words == 5
    assert cfg.qa_enabled is False and cfg.reuse_enabled is False
    assert cfg.system_prompt == "Hi:\n"
    cfg.apply("qa_enabled", "true")
    cfg.apply("reuse_enabled", "1")
    assert cfg.qa_enabled is True and cfg.reuse_enabled is True


def test_apply_rejects_bad_input():
    cfg = EngineConfig()
    with pytest.raises(ConfigError):
        cfg.apply("no_such_key", "1")
    with pytest.raises(ConfigError):
        cfg.apply("chunk_words", "three")
    with pytest.raises(ConfigError):
        cfg.apply("qa_enabled", "maybe")
    with pytest.raises(ConfigError):
        cfg.apply("tau_query", "2.0")  # valid float, fails validation
    assert cfg == EngineConfig()  # a rejected value leaves the config unchanged


def test_from_file(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(
        "# comment\n"
        "\n"
        "tau_query = 0.9\n"
        "scheduler_enabled=false\n"
        "vocab_file=vocab.txt\n",
        encoding="utf-8",
    )
    cfg = EngineConfig.from_file(path)
    assert cfg.tau_query == 0.9 and cfg.scheduler_enabled is False
    # relative paths resolve against the config file's directory
    assert cfg.vocab_file == str(tmp_path / "vocab.txt")


def test_from_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just a line\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        EngineConfig.from_file(path)
    path.write_text("unknown_key=1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        EngineConfig.from_file(path)


def test_from_file_strips_only_spaces_and_tabs(tmp_path):
    path = tmp_path / "engine.cfg"
    for pad in ("\f", "\u00a0", "\u2028"):
        prompt = f"{pad}Notes:{pad}"
        # a line of that character alone is still blank
        path.write_text(f"{pad}\nsystem_prompt={prompt}\n", encoding="utf-8")
        assert EngineConfig.from_file(path).system_prompt == prompt
    path.write_text(" \tsystem_prompt\t =  Notes  \t\n", encoding="utf-8")
    assert EngineConfig.from_file(path).system_prompt == "Notes"


# every line boundary str.splitlines knows beyond "\n", "\r\n" and "\r"
OTHER_BOUNDARIES = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_from_file_splits_lines_at_line_ends_only(tmp_path, end):
    # a prompt holding the other boundaries loads intact, and the line
    # after it is numbered as an editor shows it
    prompt = "Notes:" + OTHER_BOUNDARIES + "answer."
    path = tmp_path / "engine.cfg"
    path.write_bytes(f"system_prompt={prompt}\\n{end}tau_query=0.9{end}".encode("utf-8"))
    cfg = EngineConfig.from_file(path)
    assert cfg.system_prompt == prompt + "\n" and cfg.tau_query == 0.9
    path.write_bytes(f"system_prompt={prompt}{end}bogus_key=1{end}".encode("utf-8"))
    with pytest.raises(ConfigError, match=f"^{path}:2: unknown config key: bogus_key$"):
        EngineConfig.from_file(path)
