"""Tests for run configuration: validation and serialization."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspectcrf.config import ConfigError, RunConfig

FIELD_NAMES = [f.name for f in dataclasses.fields(RunConfig)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
# mostly real field names, so that most objects reach the type and domain checks
json_objects = st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(), json_values, max_size=6)


class TestValidation:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.hidden_size == 64 and cfg.crf_heads == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("hidden_size", 48),
            ("batch_size", 32),
            ("dropout", 0.2),
            ("dropout", 0.9),
            ("d_as", 60),
            ("gamma", 4),
            ("gamma", -1),
            ("gru_layers", 0),
            ("crf_heads", 0),
            ("crf_heads", 17),
            ("crf_heads", 4096),
            ("lr", -0.1),
            ("max_epochs", 0),
            ("patience", 0),
            ("embedding_dim", 0),
            # types are checked exactly: bools are not numbers, ints take ints only
            ("crf_heads", True),
            ("hidden_size", 64.0),
            ("seed", None),
            ("seed", -1),
            ("max_epochs", 2.5),
            ("dropout", False),
            ("lr", "0.01"),
            ("lr", float("inf")),
            ("lr", float("nan")),
            pytest.param("lr", 10**400, id="lr-huge-int"),
            ("no_decay", 1),
            ("train_path", None),
        ],
    )
    def test_out_of_domain_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            RunConfig(**{field: value})

    def test_float_fields_accept_ints(self):
        cfg = RunConfig.from_json('{"lr": 1}')
        assert cfg.lr == 1 and RunConfig(lr=0).lr == 0

    def test_error_names_offending_field(self):
        with pytest.raises(ConfigError, match="hidden_size"):
            RunConfig(hidden_size=100)

    def test_at_most_one_ablation_flag(self):
        RunConfig(no_decay=True)
        with pytest.raises(ConfigError, match="ablation"):
            RunConfig(no_decay=True, no_aspect_indicator=True)

    def test_gamma_zero_allowed_directly(self):
        assert RunConfig(gamma=0).effective_gamma == 0

    def test_effective_gamma_under_ablation(self):
        assert RunConfig(gamma=3, no_decay=True).effective_gamma == 0
        assert RunConfig(gamma=3).effective_gamma == 3


class TestRetiredFields:
    """Fields older configs and checkpoints carry load at the one value still implemented."""

    @pytest.mark.parametrize(
        "field,value",
        [("embeddings_trainable", True), ("share_transitions", False),
         ("selection_metric", "accuracy"), ("corpus_format", "")],
    )
    def test_retired_value_dropped(self, field, value):
        base = {"hidden_size": 32, "seed": 4}
        cfg = RunConfig.from_json(json.dumps({**base, field: value}))
        assert cfg.to_canonical_json() == RunConfig.from_json(json.dumps(base)).to_canonical_json()

    @pytest.mark.parametrize(
        "field,value",
        [("share_transitions", True), ("share_transitions", 0),
         ("selection_metric", "macro_f1"), ("embeddings_trainable", False),
         ("corpus_format", "jsonl")],
    )
    def test_other_value_rejected_naming_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}: "):
            RunConfig.from_json(json.dumps({field: value}))

    def test_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            RunConfig(share_transitions=False)
        assert len(dataclasses.fields(RunConfig)) == 18


class TestFromJsonProperty:
    @settings(max_examples=300, deadline=None)
    @given(json_objects)
    def test_returns_config_or_raises_config_error(self, obj):
        try:
            cfg = RunConfig.from_json(json.dumps(obj))
        except ConfigError:
            return
        # what is accepted serializes as standard JSON (no NaN or Infinity) and round-trips
        json.dumps(dataclasses.asdict(cfg), allow_nan=False)
        assert RunConfig.from_json(cfg.to_canonical_json()) == cfg


class TestSerialization:
    def test_canonical_json_round_trip(self):
        cfg = RunConfig(hidden_size=32, dropout=0.4, seed=9)
        clone = RunConfig.from_json(cfg.to_canonical_json())
        assert clone == cfg
        assert clone.to_canonical_json() == cfg.to_canonical_json()

    def test_canonical_json_sorted_compact(self):
        text = RunConfig().to_canonical_json()
        assert ": " not in text and ", " not in text
        keys = [piece.split(":")[0].strip('"{') for piece in text.split(",")]
        assert keys == sorted(keys)

    def test_digest_tracks_content(self):
        a, b = RunConfig(seed=1), RunConfig(seed=2)
        assert a.digest() != b.digest()
        assert a.digest() == RunConfig(seed=1).digest()
        assert len(a.digest()) == 12

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig.from_json('{"hidden_sizes": 64}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_json("{nope")
        with pytest.raises(ConfigError, match="object"):
            RunConfig.from_json("[1, 2]")

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"hidden_size": 32, "seed": 4}', encoding="utf-8")
        cfg = RunConfig.from_file(path)
        assert cfg.hidden_size == 32 and cfg.seed == 4

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunConfig.from_file(tmp_path / "none.json")

    def test_replace_revalidates(self):
        cfg = RunConfig()
        assert cfg.replace(seed=3).seed == 3
        with pytest.raises(ConfigError):
            cfg.replace(hidden_size=1)
