"""End-to-end acceptance suite: one `test_<name>` per entry of the flagship
check battery (`sliceregular.checks`), at full scale with the entry's seed."""

import math

import numpy as np

from sliceregular.checks import FX, battery
from sliceregular.quaternion import Quaternion

from oracles import trace_arg

# phi0(pbar) = ln(sqrt 17) + I * arg, with the argument delivered by the
# independent cut-avoiding polyline tracer
PHI0 = (Quaternion(math.log(math.sqrt(17.0)))
        + FX.cfg.base_unit * trace_arg(0.0, complex(-1.0, -4.0)))


def _acceptance_test(name, seed, check):
    def test():
        ok, note = check(np.random.default_rng(seed), 1.0)
        assert ok, note

    test.__name__ = test.__qualname__ = "test_" + name
    return test


for _name, _seed, _check in battery(PHI0):
    globals()["test_" + _name] = _acceptance_test(_name, _seed, _check)
