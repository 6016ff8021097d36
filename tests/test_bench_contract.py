"""The library names the traced benchmark relies on.

`bench/spans.py` wraps library callables by looking each one up in its
owner's `__dict__`, and derives counts from the objects they return; a
rename or a moved function breaks the traced benchmark without failing any
library test.  This loads `bench/spans.py` by path and runs one traced map.
"""

import importlib.util
import os

import numpy as np
import pytest

from qcreparam import cli
from qcreparam.field import DiscGrid, SampledMap, TargetSpace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "bench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(spans):
    for owner, attr, name, static in spans._module_targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name}) is gone"
        assert callable(owner.__dict__[attr].__func__ if static else owner.__dict__[attr])
        assert name in spans.LAYER_OF


@pytest.mark.parametrize("target", ["linf", "euclid"])
def test_traced_map_yields_layers(spans, tmp_path, target):
    # both semi-norm representations: the sampled field of an l-inf target
    # and the quadratic field of a Euclidean one
    space = TargetSpace.linf() if target == "linf" else TargetSpace.euclidean(2)
    path = tmp_path / f"{target}.map"
    SampledMap.from_function(DiscGrid(32), space,
                             lambda x, y: np.stack([x + 0.2 * x * y, y + 0.1 * x * x])).save(path)
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _, _ in spans._module_targets()}
    tracer = spans.Tracer()
    with tracer:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
        with tracer.root(spans.MAP_SPAN, 0):
            code = cli.main(["reparam", "--input", str(path), "--epsilon", "0.6283",
                             "--outdir", str(tmp_path / "out")])
        last = len(tracer.spans)
    assert code == 0
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    out = spans.map_layers(tracer.spans, 0, last, 0)
    for metric in spans.TIME_METRICS:
        assert out[metric] >= 0.0, metric
    assert out["field.composed_nodes"] > 0
    # only a polygonal target evaluates sampled gauges
    assert (out.get("seminorm.gauge_points", 0) > 0) == (target == "linf")
    assert 0.0 < out["field.distinct_cell_share"] <= 1.0
    assert out["beltrami.solver_iterations"] > 0
    # distinct_cell_share reads the per-cell view of the field's own kind
    field_ = tracer.noted("epsilon_conformal", 0)[2].extras["field"]
    own, other = ("samp", "quad") if target == "linf" else ("quad", "samp")
    view = getattr(field_, own)
    assert view.shape == (32, 32, field_.rows.shape[1])
    assert np.array_equal(view, field_.rows[field_.index])
    assert getattr(field_, other) is None
