"""Time one set-up of a workload in a fresh interpreter and print seconds.

    python3 setup_probe.py CONFIG_YAML   # import, parse, build task and gadgets
    python3 setup_probe.py --losses      # import, validate every registered loss

Set-up uses only public calls: `load_config`, `build_task` and
`make_structured_net` (which builds and certifies the product gadget), or
`get_loss(...).validate()` for the loss study.
"""

import sys
import time

t0 = time.perf_counter()

import metriclab  # noqa: E402
from metriclab.config import load_config  # noqa: E402


def main() -> None:
    if sys.argv[1] == "--losses":
        for name in sorted(metriclab.LOSSES):
            metriclab.get_loss(name).validate()
    else:
        config = load_config(sys.argv[1])
        task = config.build_task()
        model = config.model
        metriclab.make_structured_net(
            p=task.p, m=int(model.get("m", task.model.m)), depth=int(model.get("depth", 2)),
            width=int(model.get("width", 4)), epsilon=float(model.get("epsilon", 1e-2)),
            a=float(model.get("a", 0.1)), clamp=bool(model.get("clamp", True)), seed=0,
            init_scale=float(model.get("init_scale", 1.0)))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
