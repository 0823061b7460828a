"""Transient simulation of large linear circuits.

Descriptor systems C xdot = -G x + B u(t) assembled from SPICE-like
netlists, advanced either by classic fixed-step methods (trapezoidal,
backward Euler) or by adaptive matrix-exponential stepping on inverted
or rational Krylov subspaces, with superposition-based input
decomposition.

The top level re-exports the entry points; everything else lives in the
submodules (netlist, numkit, krylov, stepper, decomp, meshgen, cli).
"""

from .decomp import run_superposed
from .errors import CircuitError, NetlistError, NoConvergence, NumericalError
from .meshgen import generate_mesh_netlist
from .netlist import build_system, dc_analysis
from .stepper import SolverConfig, WaveformResult, solve_transient

__version__ = "0.1.0"

__all__ = [
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
