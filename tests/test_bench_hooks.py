"""The names that the benchmark's span recorder rebinds, and the result shapes it reads.

`perfbench/spans.py` times hopfq from the outside: it replaces each function
listed in its `LAYERS` by a recording wrapper, and `layer_metrics` counts the
prescreen verdicts in the results it kept, telling a biquadratic tuple of
verdicts from a single cyclic verdict by `isinstance(result, tuple)`.  These
tests load that file by path, unchanged, and check that hopfq still offers
what it reads.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from hopfq.fields import canonicalize_biquadratic, validate_cyclic
from hopfq.freeness import prescreen_biquadratic, prescreen_cyclic

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_layer_function_is_a_callable_of_its_home_module():
    layers = _spans().LAYERS
    assert layers
    for name, (home, functions) in layers.items():
        module = importlib.import_module(home)
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), f"{name}: {home}.{fn_name}"


def test_prescreen_results_have_the_shapes_layer_metrics_reads():
    assert "freeness.prescreen" in _spans().KEEP_RESULT
    for p in (validate_cyclic(1, 9, 5), validate_cyclic(3, 2, 3)):
        verdict = prescreen_cyclic(p)
        assert not isinstance(verdict, tuple)
        assert isinstance(verdict.outcome, str)
    for m, n in ((-3, -7), (2, 3), (5, 13)):
        verdicts = prescreen_biquadratic(canonicalize_biquadratic(m, n))
        assert isinstance(verdicts, tuple) and len(verdicts) == 3
        for verdict in verdicts:
            assert not isinstance(verdict, tuple)
            assert isinstance(verdict.outcome, str)
