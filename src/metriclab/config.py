"""Experiment configuration: strict YAML with unknown-key rejection.

Four blocks: task, model, train, eval.  Unknown keys anywhere are errors
(a silently ignored typo would invalidate a whole sweep), and every value
is range-checked before any work starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, ParameterError
from .erm import TrainConfig, epoch_pairs
from .gadgets import build_sign_approx, product_depth
from .risk import check_mc_pairs, sweep_seeds, sweep_sizes
from .synthetic import (SyntheticTask, check_noise_pairs, check_sample_size, family_parameters,
                        make_task, noise_t_grid)

# every key of every block, with its type: a one-element list types a list's
# entries and a mapping a nested block; [task] also takes its family's own
# parameters, which synthetic.family_parameters reads from the builder
_KEYS = {
    "task": {"family": str, "p": int, "seed": int},
    "model": {"m": int, "depth": int, "width": int, "epsilon": float, "a": float, "clamp": bool,
              "init_scale": float, "a_anneal": {"start": float, "decay": float}},
    "train": {"n": int, "epochs": int, "pair_batch": int, "lr_init": float, "lr_decay": float,
              "pair_strategy": str, "pairs_per_epoch": int, "seed": int},
    "eval": {"mc_pairs": int, "seed": int, "t_grid": [float], "n_list": [int], "seeds": [int],
             "noise_mc_pairs": int},
}
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}

# the keys whose rule the library owns, each with the function that checks
# it: load_config calls the same function as the code that uses the value
_LIBRARY_RULES = {("model", "epsilon"): product_depth, ("model", "a"): build_sign_approx,
                  ("train", "n"): check_sample_size, ("eval", "mc_pairs"): check_mc_pairs,
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
        """The [task] block's task; make_task owns the family's rules and
        defaults. A declared [model] m must be the task's label count: the
        net has one sub-network per label."""
        params = dict(self.task)
        if seed_override is not None:
            params["seed"] = seed_override
        try:
            task = make_task(**params)
        except ParameterError as err:
            raise ConfigError(f"{self.source_path}: [task] {err}") from err
        if self.model.get("m", task.model.m) != task.model.m:
            raise ConfigError(f"{self.source_path}: [model] m={self.model['m']} but family "
                              f"{self.task['family']!r} has {task.model.m} labels")
        return task

    def model_spec(self, task: SyntheticTask) -> dict:
        """make_structured_net's keywords besides p and seed: the [model]
        values the file sets (a_anneal belongs to training) and the task's
        m; make_structured_net owns the defaults."""
        return {"m": task.model.m, **{k: v for k, v in self.model.items() if k != "a_anneal"}}

    def build_train_config(self) -> TrainConfig:
        """The [train] block without n and seed (each command derives its
        training seed) and [model] a_anneal; TrainConfig owns the defaults."""
        params = {k: v for k, v in self.train.items() if k not in ("n", "seed")}
        try:
            return TrainConfig(**params, a_anneal=self.model.get("a_anneal"))
        except ParameterError as err:
            raise ConfigError(f"{self.source_path}: {err}") from err


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _typed(value, kind, where: str, label: str):
    """value checked against its type in _KEYS, with numbers cast to it."""
    if isinstance(kind, dict):
        _require(isinstance(value, dict), where, f"{label} must be a mapping, got {value!r}")
        for key in value:
            _require(key in kind, where, f"{label} unknown key {key!r} (allowed: {sorted(kind)})")
        return {key: _typed(v, kind[key], where, f"{label} {key}") for key, v in value.items()}
    if isinstance(kind, list):
        _require(isinstance(value, list), where, f"{label} must be a list, got {value!r}")
        return [_typed(v, kind[0], where, label) for v in value]
    if kind is float:
        try:  # PyYAML reads exponent forms without a dot (1e-3) as strings
            ok = not isinstance(value, bool) and math.isfinite(value := float(value))
        except (TypeError, ValueError):
            ok = False
    else:
        ok = type(value) is kind  # so a bool is no integer
    _require(ok, where, f"{label} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML experiment config."""
    # imported on first use: metric-lab and verify-gadgets read no config
    import hashlib
    import yaml

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
        _require(name in _KEYS, where, f"unknown block [{name}] (allowed: {sorted(_KEYS)})")
    # a block with nothing under it reads as null
    blocks = {name: {} if doc.get(name) is None else doc[name] for name in _KEYS}
    task = blocks["task"]
    _require(isinstance(task, dict) and "family" in task, where,
             "[task] must be a mapping with a 'family' key")
    try:
        task_keys = family_parameters(_typed(task["family"], str, where, "[task] family"))
    except ParameterError as err:
        raise ConfigError(f"{where}: [task] {err}") from err
    for name, keys in _KEYS.items():
        keys = {**keys, **task_keys} if name == "task" else keys
        blocks[name] = _typed(blocks[name], keys, where, f"[{name}]")
        # numpy seeds and SeedSequence spawn keys must be non-negative
        _require(blocks[name].get("seed", 0) >= 0, where, f"[{name}] seed must be >= 0")

    model = blocks["model"]
    for key in ("depth", "width"):
        _require(model.get(key, 1) >= 1, where, f"[model] {key} must be >= 1")
    # a depth-1 sub-network is affine in x: it has no hidden layer to size
    _require(model.get("depth") != 1 or "width" not in model, where,
             "[model] width has no effect at depth 1; remove it")

    for (name, key), rule in _LIBRARY_RULES.items():
        if key in blocks[name]:
            try:
                rule(blocks[name][key])
            except ParameterError as err:
                raise ConfigError(f"{where}: [{name}] {err}") from err

    config = ExperimentConfig(**blocks, source_path=where,
                              sha256=hashlib.sha256(raw).hexdigest())
    config.build_task()  # make_task validates [task]
    train = config.build_train_config()  # TrainConfig validates [train] and [model] a_anneal
    # epoch_pairs caps an epoch's pairs at [train] n (2 when unset, where
    # only pairs_per_epoch can exceed the cap) and at the sweep's largest n
    for label, n in (("[train]", config.train.get("n", 2)),
                     ("[eval] n_list:", max(config.eval.get("n_list", [2])))):
        try:
            epoch_pairs(train, n)
        except ParameterError as err:
            raise ConfigError(f"{where}: {label} {err}") from err
    return config
