"""Every binding the traced benchmark wraps must exist in the package.

bench/spans.py lists in HOOKS each (module, attribute) it replaces with a
span-recording wrapper; a renamed or deleted binding fails the traced run.
Checking the list here makes such a rename fail the test suite as well.
The file is read and executed in memory, so nothing is written under
bench/.
"""

import importlib

import numpy as np
import pytest

from metriclab import losses

from helpers import bench_module

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
