"""The benchmark's scripts still find what they use of the program.

``perfbench/tracer.py`` patches the functions named in its ``TARGETS`` by
module and attribute path, and ``perfbench/make_refs.py`` builds its
request pools from the registry and the solver; the pools in
``perfbench/refs`` name their series as ``eval`` reads them.  A rename or
deletion in ``autoseries`` that drops one of them would break the
benchmark; these tests make the suite fail first.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import autoseries

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_make_refs_still_reads_the_registry_and_the_solver():
    # make_refs.registry() checks each record at its default exponents, as
    # ``[f"{s:g}" for s in ident.default_s]`` for a DIRICHLET record and at
    # s = None otherwise; the checked-in pool is exactly those cells.  Its
    # solve pool keeps the alphabets whose solve_case s lies in [2, 4] and
    # skips those a guard refuses with a ValueError.  The suite never runs
    # make_refs, so nothing else would catch a break here.
    from autoseries import IdentityKind, builtin_registry
    from autoseries.solver import solve_case

    assert autoseries.IdentityKind is IdentityKind
    cells = []
    for ident in builtin_registry():
        assert ident.kind in (IdentityKind.DIRICHLET, IdentityKind.FIXED_SERIES)
        dirichlet = ident.kind is IdentityKind.DIRICHLET
        assert dirichlet == (ident.fixed_lhs is None), ident.identity_id
        cells += [(ident.identity_id, f"{s:g}" if dirichlet else None)
                  for s in (ident.default_s if dirichlet else [None])]
    (stratum,) = json.loads((PERFBENCH / "refs" / "registry.json").read_text())["strata"]
    assert cells == [(ident, s) for ident, s, *_ in stratum["cells"]]

    assert solve_case("pows", 1.0, 9.0 / 7.0).s == pytest.approx(3.0)
    with pytest.raises(ValueError):
        solve_case("pows", 1.0, 1.0)


def test_every_pool_series_resolves_through_the_cli_catalog():
    # the pools reach the program only through cli.main, so a series name
    # the catalog drops would fail every request of its stratum
    from autoseries.cli import _catalog_series

    names = {stratum["series"] for path in sorted((PERFBENCH / "refs").glob("*.json"))
             for stratum in json.loads(path.read_text())["strata"] if stratum.get("series")}
    assert {"f", "g", "phi", "gamma", "delta", "composite9", "digitsum:3"} <= names
    for name in sorted(names):
        _catalog_series(name)


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


def test_tracer_resolves_every_target_and_restores_every_attribute(monkeypatch):
    # the way the traced benchmark run meets the program: the command line
    # imported first, then the tracer from its own directory on sys.path
    import sys

    import autoseries.cli  # noqa: F401
    from autoseries.identities import Expr

    originals = {}
    for mod_name, path, span in _load_tracer().TARGETS:
        obj = importlib.import_module(f"autoseries.{mod_name}")
        *owners, attr = path.split(".")
        for name in owners:
            obj = getattr(obj, name)
        originals[span] = vars(obj)[attr]
    leaves = []
    todo = list(Expr.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "bracket" in vars(cls):
            leaves.append(cls)

    monkeypatch.syspath_prepend(str(TRACER.parent))
    sys.modules.pop("tracer", None)
    try:
        tracer = importlib.import_module("tracer")
        rec = tracer.Recorder()
        try:
            rec.install()
            patched = list(rec._undo)
            for owner, attr, orig in patched:
                assert vars(owner)[attr] is not orig
        finally:
            rec.uninstall()
    finally:
        sys.modules.pop("tracer", None)
    replaced = [orig for _, _, orig in patched]
    for span, fn in originals.items():
        assert any(orig is fn for orig in replaced), f"{span} patched no binding"
    for cls in leaves:
        assert any(owner is cls and attr == "bracket" for owner, attr, _ in patched), cls
    assert len(patched) >= len(originals) + len(leaves)
    for owner, attr, orig in patched:
        assert vars(owner)[attr] is orig, (owner, attr)
