"""The benchmark tracer (perfbench/trace.py) wraps program functions through
module attributes.  Installing it here makes a renamed or dropped attribute
fail the unit suite instead of a traced benchmark run."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import WRAP_POINTS, Tracer  # noqa: E402


def test_tracer_installs_and_restores_every_wrap_point():
    originals = [getattr(module, attr) for module, attr, *_ in WRAP_POINTS]
    tracer = Tracer()
    tracer.install()
    try:
        for (module, attr, *_), original in zip(WRAP_POINTS, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr, *_), original in zip(WRAP_POINTS, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
