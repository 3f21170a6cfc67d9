import importlib.util
import pathlib
import sys

import numpy as np

from tailchain import cli  # noqa: F401  (loaded, so that its names are patched too)
from tailchain.measures import HuslerReissMeasure

from conftest import FIG1_HR

_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _names():
    """Every attribute of every tailchain module and class, by identity."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key != "tailchain" and not key.startswith("tailchain."):
            continue
        for attr, value in vars(mod).items():
            out[(key, attr)] = value
            if isinstance(value, type) and value.__module__ == key:
                for name, member in vars(value).items():
                    out[(key, attr, name)] = member
    return out


def test_tracer_patches_every_listed_name_and_restores_it():
    # the benchmark's --trace 1 wraps names of src by hand; a deleted or
    # renamed one must fail here rather than in the benchmark
    before = _names()
    tracer = spans.Tracer()
    try:
        tracer.install()
        for owner, attr, *_ in spans._function_table():
            assert getattr(getattr(owner, attr), "__traced__", False), attr
        for cls, attr, *_ in spans._method_table():
            assert getattr(cls.__dict__[attr], "__traced__", False), (cls.__name__, attr)
        # a traced Hüsler-Reiss value evaluator builds its head caches through
        # the singleton partial evaluators
        m = HuslerReissMeasure(FIG1_HR[:3, :3], kernel_points=24)
        tracer.active = True
        m.value_tail_evaluator(np.zeros((4, 2)))(np.ones(4))
        tracer.active = False
        metrics = spans.layer_metrics(tracer.spans, 1, 0.0)
        assert metrics["mvnorm.tail_cache_builds"][0] == 2
        assert metrics["measures.partial_calls"][0] == 2
    finally:
        tracer.uninstall()
    after = _names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
