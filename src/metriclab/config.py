"""Experiment configuration: strict YAML with unknown-key rejection.

Four blocks: task, model, train, eval.  Unknown keys anywhere are errors
(a silently ignored typo would invalidate a whole sweep), and every value
is range-checked before any work starts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import yaml

from .errors import ConfigError, ParameterError
from .erm import TrainConfig
from .gadgets import build_sign_approx, product_depth
from .risk import check_mc_pairs, sweep_seeds, sweep_sizes
from .synthetic import MODEL_FAMILIES, SyntheticTask, check_noise_pairs, make_task, noise_t_grid

_TASK_KEYS = {"family", "p", "m", "seed", "r", "A", "k", "beta", "rho",
              "p1_left", "p1_right"}
_MODEL_KEYS = {"m", "depth", "width", "epsilon", "a", "clamp", "init_scale", "a_anneal"}
_TRAIN_KEYS = {"n", "epochs", "pair_batch", "lr_init", "lr_decay", "pair_strategy",
               "pairs_per_epoch", "seed"}
_EVAL_KEYS = {"mc_pairs", "seed", "t_grid", "n_list", "seeds", "noise_mc_pairs"}
_BLOCKS = {"task": _TASK_KEYS, "model": _MODEL_KEYS, "train": _TRAIN_KEYS, "eval": _EVAL_KEYS}

# numeric keys, whichever block holds them; each value is type-checked and
# cast here, once
_INT_KEYS = {"p", "m", "seed", "r", "k", "depth", "width", "n", "epochs", "pair_batch",
             "pairs_per_epoch", "mc_pairs", "noise_mc_pairs", "n_list", "seeds"}
_FLOAT_KEYS = {"A", "beta", "rho", "p1_left", "p1_right", "epsilon", "a", "init_scale",
               "lr_init", "lr_decay", "t_grid", "start", "decay"}
_LIST_KEYS = {"n_list", "seeds", "t_grid"}

# make_structured_net keywords besides p, seed and m (whose default is the
# task's label count)
_MODEL_DEFAULTS = {"depth": 2, "width": 4, "epsilon": 1e-2, "a": 0.1, "clamp": True,
                   "init_scale": 1.0}

# the keys whose rule the library owns, each with the function that checks
# it: load_config calls the same function as the code that uses the value
_LIBRARY_RULES = {("model", "epsilon"): product_depth, ("model", "a"): build_sign_approx,
                  ("eval", "mc_pairs"): check_mc_pairs,
                  ("eval", "n_list"): sweep_sizes, ("eval", "seeds"): sweep_seeds,
                  ("eval", "t_grid"): noise_t_grid, ("eval", "noise_mc_pairs"): check_noise_pairs}


@dataclass
class ExperimentConfig:
    task: dict
    model: dict
    train: dict
    eval: dict
    source_path: str = ""
    sha256: str = ""

    def build_task(self, seed_override: int | None = None) -> SyntheticTask:
        params = {k: v for k, v in self.task.items()
                  if k not in ("family", "p", "m", "seed")}
        seed = self.task.get("seed", 0) if seed_override is None else seed_override
        task = make_task(self.task["family"], p=self.task.get("p", 1), seed=seed, **params)
        declared_m = self.task.get("m")
        if declared_m is not None and declared_m != task.model.m:
            raise ConfigError(
                f"{self.source_path}: [task] m={declared_m} but family "
                f"{self.task['family']!r} has {task.model.m} labels"
            )
        return task

    def model_spec(self, task: SyntheticTask) -> dict:
        """make_structured_net's keywords besides p and seed: the [model]
        block over its defaults."""
        spec = {"m": task.model.m, **_MODEL_DEFAULTS}
        spec.update((k, v) for k, v in self.model.items() if k in spec)
        return spec

    def build_train_config(self) -> TrainConfig:
        """The [train] block (without n) and [model] a_anneal; TrainConfig
        supplies the defaults and validates the values."""
        params = {k: v for k, v in self.train.items() if k != "n"}
        try:
            return TrainConfig(**params, a_anneal=self.model.get("a_anneal"))
        except ParameterError as err:
            raise ConfigError(f"{self.source_path}: {err}") from err


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _as_number(value, integer: bool, where: str, name: str):
    if integer:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        try:  # PyYAML reads exponent forms without a dot (1e-3) as strings
            ok = not isinstance(value, bool) and math.isfinite(value := float(value))
        except (TypeError, ValueError):
            ok = False
    _require(ok, where, f"{name} must be {'an integer' if integer else 'a finite number'}, "
             f"got {value!r}")
    return value


def _cast_numbers(block: dict, where: str, name: str) -> None:
    for key, value in block.items():
        label = f"{name} {key}"
        if key == "a_anneal" and isinstance(value, dict):
            _cast_numbers(value, where, label)
        elif key in _LIST_KEYS:
            _require(isinstance(value, list), where, f"{label} must be a list, got {value!r}")
            block[key] = [_as_number(v, key in _INT_KEYS, where, label) for v in value]
        elif key in _INT_KEYS | _FLOAT_KEYS and not (key == "pairs_per_epoch" and value is None):
            block[key] = _as_number(value, key in _INT_KEYS, where, label)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    where = str(path)
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise ConfigError(f"{where}: cannot read config ({err.strerror})") from err
    try:
        doc = yaml.safe_load(raw)
    except yaml.YAMLError as err:
        raise ConfigError(f"{where}: {err}") from err
    _require(isinstance(doc, dict), where, "top level must be a mapping")
    for name in doc:
        _require(name in _BLOCKS, where, f"unknown block [{name}] "
                 f"(allowed: {sorted(_BLOCKS)})")
    blocks = {}
    for name, allowed in _BLOCKS.items():
        block = doc.get(name, {}) or {}
        _require(isinstance(block, dict), where, f"[{name}] must be a mapping")
        for key in block:
            _require(key in allowed, where,
                     f"[{name}] unknown key {key!r} (allowed: {sorted(allowed)})")
        _cast_numbers(block, where, f"[{name}]")
        # numpy seeds and SeedSequence spawn keys must be non-negative
        _require(block.get("seed", 0) >= 0, where, f"[{name}] seed must be >= 0")
        blocks[name] = block

    task = blocks["task"]
    _require("family" in task, where, "[task] needs a 'family' key")
    _require(isinstance(task["family"], str) and task["family"] in MODEL_FAMILIES, where,
             f"[task] unknown family {task['family']!r} (known: {sorted(MODEL_FAMILIES)})")
    _require(task.get("p", 1) >= 1, where, "[task] p must be >= 1")

    model = blocks["model"]
    for key in ("m", "depth", "width"):
        _require(model.get(key, 1) >= 1, where, f"[model] {key} must be >= 1")
    if "clamp" in model:
        _require(isinstance(model["clamp"], bool), where, "[model] clamp must be true or false")
    # an absent anneal is None to TrainConfig; a null one is a config error
    _require(isinstance(model.get("a_anneal", {}), dict), where,
             f"[model] a_anneal must be a mapping, got {model.get('a_anneal')!r}")

    _require(blocks["train"].get("n", 2) >= 2, where,
             "[train] n must be >= 2 (pair risk needs pairs)")

    for (name, key), rule in _LIBRARY_RULES.items():
        if key in blocks[name]:
            try:
                rule(blocks[name][key])
            except ParameterError as err:
                raise ConfigError(f"{where}: [{name}] {err}") from err

    config = ExperimentConfig(**blocks, source_path=where,
                              sha256=hashlib.sha256(raw).hexdigest())
    config.build_train_config()  # TrainConfig validates [train] and [model] a_anneal
    return config
