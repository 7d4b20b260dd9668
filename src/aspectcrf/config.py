"""Run configuration: hyperparameters, ablation switches, corpus paths.

Serialization is canonical (sorted keys, no whitespace), and the exact JSON
written here is embedded verbatim in checkpoints, so a config round-trips
byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HIDDEN_SIZES = (32, 64)
BATCH_SIZES = (64, 96)
DROPOUT_RANGE = (0.3, 0.8)
ASPECT_DIMS = (50, 70, 90)
GAMMA_CHOICES = (0, 1, 2, 3)  # 0 is the no-decay ablation, not in the search grid
LAYER_CHOICES = (1, 2, 3)
SELECTION_METRICS = ("accuracy", "macro_f1")

# the hyperparameter search space; gamma 0 deliberately excluded
DEFAULT_GRID = {
    "hidden_size": [32, 64],
    "batch_size": [64, 96],
    "dropout": [0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    "d_as": [50, 70, 90],
    "gamma": [1, 2, 3],
    "gru_layers": [1, 2, 3],
}


# the JSON types each annotated field type accepts; bools are never numbers
_ACCEPTED_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


class ConfigError(ValueError):
    """A configuration value is outside its declared domain."""


@dataclass(frozen=True)
class RunConfig:
    hidden_size: int = 64
    batch_size: int = 64
    dropout: float = 0.5
    d_as: int = 50
    gamma: int = 2
    gru_layers: int = 1
    crf_heads: int = 4
    lr: float = 0.008
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0
    no_aspect_indicator: bool = False
    no_decay: bool = False
    no_structured_attention: bool = False
    embeddings_trainable: bool = True
    share_transitions: bool = False
    selection_metric: str = "accuracy"
    embedding_dim: int = 300
    train_path: str = ""
    test_path: str = ""
    embeddings_path: str = ""
    corpus_format: str = ""  # empty = infer from file suffix

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def check(cond: bool, field: str, message: str) -> None:
            if not cond:
                raise ConfigError(f"{field}: {message}")

        # types first, so the domain checks below only ever compare like with like
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            well_typed = isinstance(value, _ACCEPTED_TYPES[f.type]) and (
                isinstance(value, bool) == (f.type == "bool")
            )
            check(well_typed, f.name, f"must be of type {f.type}, got {type(value).__name__}")
            if f.type == "float":
                # also rejects NaN, and ints too large to become a float64
                check(abs(value) <= sys.float_info.max, f.name, "must be a finite float64")
        check(self.hidden_size in HIDDEN_SIZES, "hidden_size", f"must be one of {HIDDEN_SIZES}")
        check(self.batch_size in BATCH_SIZES, "batch_size", f"must be one of {BATCH_SIZES}")
        lo, hi = DROPOUT_RANGE
        check(lo <= self.dropout <= hi, "dropout", f"must lie in [{lo}, {hi}]")
        check(self.d_as in ASPECT_DIMS, "d_as", f"must be one of {ASPECT_DIMS}")
        check(self.gamma in GAMMA_CHOICES, "gamma", f"must be one of {GAMMA_CHOICES}")
        check(self.gru_layers in LAYER_CHOICES, "gru_layers", f"must be one of {LAYER_CHOICES}")
        check(self.crf_heads >= 1, "crf_heads", "must be >= 1")
        check(self.lr >= 0, "lr", "must be >= 0")
        check(self.max_epochs >= 1, "max_epochs", "must be >= 1")
        check(self.patience >= 1, "patience", "must be >= 1")
        check(self.seed >= 0, "seed", "must be >= 0")
        check(self.embedding_dim >= 1, "embedding_dim", "must be >= 1")
        check(
            self.selection_metric in SELECTION_METRICS,
            "selection_metric",
            f"must be one of {SELECTION_METRICS}",
        )
        flags = [self.no_aspect_indicator, self.no_decay, self.no_structured_attention]
        check(sum(flags) <= 1, "ablation", "at most one ablation flag per run")
        if self.corpus_format:
            check(
                self.corpus_format in ("semeval-xml", "jsonl"),
                "corpus_format",
                "must be semeval-xml or jsonl",
            )

    @property
    def effective_gamma(self) -> int:
        return 0 if self.no_decay else self.gamma

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def to_canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, over-long ints, deep nesting
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))
