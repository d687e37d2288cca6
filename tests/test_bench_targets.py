"""The benchmark's tracer still binds every function it wraps.

``perfbench/tracer.py`` patches the functions named in its ``TARGETS`` by
module and attribute path.  A rename or deletion in ``autoseries`` that
drops one of them would break the traced benchmark run; this test makes
the suite fail first.
"""

import importlib
import importlib.util
from pathlib import Path

import autoseries

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = _load_tracer()
    for mod_name, path, _span in tracer.TARGETS:
        obj = importlib.import_module(f"autoseries.{mod_name}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"autoseries.{mod_name}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"autoseries.{mod_name}.{path} is not callable"


def test_recorder_installs_and_uninstalls():
    tracer = _load_tracer()
    evaluator = importlib.import_module("autoseries.evaluator")
    identities = importlib.import_module("autoseries.identities")
    before = (evaluator.eval_naive, identities.eval_series_spec, autoseries.eval_naive)
    rec = tracer.Recorder()
    try:
        rec.install()
        assert evaluator.eval_naive is not before[0]
        # identities.bracket.us_per_call needs at least one leaf's bracket
        assert tracer.BRACKET in rec.names
    finally:
        rec.uninstall()
    assert (evaluator.eval_naive, identities.eval_series_spec, autoseries.eval_naive) == before
