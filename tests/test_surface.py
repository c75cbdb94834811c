"""The package surface: exported names resolve, the benchmark's tracer
hooks bind and restore, and constructors reject non-finite input."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hjparisi
from hjparisi import (
    ReferenceMeasure,
    ValidationError,
    XiModel,
    load_model_dict,
    sample_cascade,
)
from hjparisi.paths import path_new, signed_path_new

NAN = float("nan")
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _modules():
    yield hjparisi
    for info in pkgutil.iter_modules(hjparisi.__path__):
        yield importlib.import_module(f"hjparisi.{info.name}")


def test_every_exported_name_resolves():
    missing = [f"{mod.__name__}.{name}" for mod in _modules()
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def _bindings():
    """Every module-level binding of the package and every attribute of
    the classes the tracer patches, by identity."""
    from hjparisi import finiten, paths
    owners = list(_modules()) + [paths.PiecewisePath,
                                 paths.SignedPiecewisePath, finiten._Session]
    return {(repr(owner), name): value for owner in owners
            for name, value in vars(owner).items()}


def test_benchmark_tracer_installs_and_restores_every_binding():
    # the traced benchmark rebinds names it looks up by string; a rename or
    # deletion of one of them makes install raise here
    spec = importlib.util.spec_from_file_location("_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        rebound = list(tracer._undo)
        assert rebound
        during = _bindings()
        for owner, attr, _ in rebound:
            assert during[repr(owner), attr] is not before[repr(owner), attr]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []


NON_FINITE = {
    "path breakpoint": lambda: path_new([0.0, NAN], [[[0.1]], [[0.3]]]),
    "path value": lambda: path_new([0.0, 0.5], [[[0.1]], [[NAN]]]),
    "signed path value": lambda: signed_path_new([0.0], [[[NAN]]]),
    "signed path inf": lambda: signed_path_new([0.0], [[[float("inf")]]]),
    "cascade level": lambda: sample_cascade([NAN], 4, 0),
    "cascade levels": lambda: sample_cascade([0.3, NAN], 4, 0),
    "xi coefficient": lambda: XiModel(1, ((2, [[NAN]]),)),
    "sk beta": lambda: load_model_dict(
        {"D": 1, "terms": [{"family": "sk", "beta": NAN}]}),
    "measure atom": lambda: ReferenceMeasure([[NAN], [-1.0]], [0.5, 0.5]),
    "measure weight": lambda: ReferenceMeasure([[1.0], [-1.0]], [NAN, 0.5]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_constructors_reject_non_finite_input(case):
    with pytest.raises(ValidationError):
        NON_FINITE[case]()
