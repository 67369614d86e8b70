"""The benchmark must run the package as the commands do.

bench/spans.py lists in HOOKS each (module, attribute) it replaces with a
span-recording wrapper; a renamed or deleted binding fails the traced run.
Checking the list here makes such a rename fail the test suite as well.
bench/setup_probe.py builds each workload's net with its own [model]
fallbacks, which must be the defaults the commands get. The files are read
and executed in memory, so nothing is written under bench/.
"""

import ast
import importlib
import inspect

import numpy as np
import pytest

from metriclab import losses
from metriclab.structured import make_structured_net

from helpers import BENCH, bench_module

spans = bench_module("spans")


@pytest.mark.parametrize("module_name, attr", sorted({(h[0], h[1]) for h in spans.HOOKS}),
                         ids=lambda v: v)
def test_hooked_binding_resolves(module_name, attr):
    module = importlib.import_module(f"metriclab.{module_name}")
    assert callable(getattr(module, attr, None)), f"metriclab.{module_name}.{attr} is gone"


def test_the_oracle_hook_sees_the_slope(monkeypatch):
    # the hook counts grid points by wrapping the oracle's first positional
    # argument, which every t* solve must pass as the slope
    oracle = losses._grid_infimum_minimize
    seen = []

    def hooked(*args, **kwargs):
        args, kwargs, counts = spans._oracle_points(args, kwargs)
        seen.append(counts)
        return oracle(*args, **kwargs)

    logistic = losses.get_loss("logistic")
    etas = np.linspace(0.1, 0.9, 5)
    want = losses.tstar_batch(logistic, 0.3)
    want_batch = losses.tstar_batch(logistic, etas)
    monkeypatch.setattr(losses, "_grid_infimum_minimize", hooked)
    assert losses.tstar_batch(logistic, 0.3) == want
    assert len(seen) == 1 and seen[0]["points"] > 40
    # a batched solve: one point per problem at each of the 48 slope evaluations
    got_batch = losses.tstar_batch(logistic, etas)
    assert len(seen) == 2 and seen[1]["points"] == 5 * 48
    assert got_batch.tobytes() == want_batch.tobytes()


def test_the_setup_probe_falls_back_to_the_defaults_the_commands_use():
    # setup_s times make_structured_net with model.get(key, fallback) for
    # each [model] key; a fallback other than the default would time
    # another set-up than the one the commands run
    tree = ast.parse((BENCH / "setup_probe.py").read_text(encoding="utf-8"))
    fallbacks = {call.args[0].value: call.args[1].value for call in ast.walk(tree)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                 and call.func.attr == "get" and ast.unparse(call.func.value) == "model"
                 and isinstance(call.args[1], ast.Constant)}
    defaults = {name: param.default for name, param
                in inspect.signature(make_structured_net).parameters.items()}
    for key, value in fallbacks.items():
        assert (type(value), value) == (type(defaults[key]), defaults[key]), key
