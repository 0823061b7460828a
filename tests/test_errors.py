"""The package's public names and its two error families."""

import inspect

import expsim
from expsim import errors


def test_public_names_are_pinned():
    assert sorted(expsim.__all__) == [
        "CircuitError",
        "NetlistError",
        "NoConvergence",
        "NumericalError",
        "SolverConfig",
        "WaveformResult",
        "build_system",
        "dc_analysis",
        "generate_mesh_netlist",
        "run_superposed",
        "solve_transient",
    ]
    assert all(hasattr(expsim, name) for name in expsim.__all__)


def test_error_classes_are_the_two_families_and_no_convergence():
    classes = {
        name for name, obj in inspect.getmembers(errors, inspect.isclass)
        if obj.__module__ == errors.__name__
    }
    assert classes == {"CircuitError", "NetlistError", "NumericalError", "NoConvergence"}
    assert issubclass(errors.NoConvergence, errors.NumericalError)
    exc = errors.NoConvergence("no", m=30, estimate=1e-3)
    assert (exc.m, exc.estimate) == (30, 1e-3)
