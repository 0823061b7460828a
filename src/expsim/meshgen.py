"""Synthetic RC mesh netlists with a tunable stiffness ratio.

The generator emits a side x side resistor grid with a grounded
resistor and capacitor at every node and a few pulsed current sources.
Stiffness here means the eigenvalue ratio Re(lambda_min)/Re(lambda_max)
of -C^-1 G; it is steered by spreading the capacitor values over a
geometric range and calibrated against a dense eigensolve, so the
emitted netlist's measured ratio lands within a decade of the target.
Everything is driven by one seeded generator: equal (n, target, seed)
give identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import netlist
from .errors import NumericalError

# Dense calibration bound; bigger meshes would need an iterative
# eigensolver this package does not carry.
CALIBRATION_CAP = 2600


def measure_stiffness(system: netlist.CircuitSystem) -> float:
    """Eigenvalue ratio Re(lambda_min)/Re(lambda_max) of -C^-1 G, densely.

    Uses the symmetric congruence C^-1/2 G C^-1/2, which needs C
    diagonal positive (the generated meshes are); any other C raises
    NumericalError.
    """
    c = system.c.scipy
    diag = c.diagonal()
    if c.nnz != np.count_nonzero(diag) or not np.all(diag > 0):
        raise NumericalError("stiffness needs a diagonal positive C")
    s = 1.0 / np.sqrt(diag)
    sym = s[:, None] * system.g.to_dense() * s[None, :]
    eigs = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    if eigs.min() <= 0:
        raise NumericalError("conductance pencil is not positive definite")
    return float(eigs.max() / eigs.min())


@dataclass
class MeshNetlist:
    text: str
    n_nodes: int
    measured_stiffness: float


_PULSE_MENU = [
    # (t_delay, t_rise, t_fall, t_width, t_period), seconds
    (10e-12, 5e-12, 5e-12, 10e-12, 150e-12),
    (20e-12, 5e-12, 5e-12, 20e-12, 150e-12),
    (40e-12, 10e-12, 10e-12, 20e-12, 150e-12),
]


def generate_mesh_netlist(
    n_nodes: int,
    stiffness_target: float,
    seed: int = 0,
    n_sources: int = 3,
    t_stop: float = 0.3e-9,
) -> MeshNetlist:
    """Emit a mesh netlist calibrated to the stiffness target.

    The capacitor spread sigma is fitted with a log-domain secant
    against measured ratios (at most a handful of dense eigensolves).
    Raises ValueError for targets below 1 or meshes too large to
    calibrate densely.
    """
    if stiffness_target < 1.0:
        raise ValueError("stiffness target below 1 is infeasible")
    side = max(2, int(round(math.sqrt(n_nodes))))
    n = side * side
    if n > CALIBRATION_CAP:
        raise ValueError(
            f"{n} nodes exceed the dense calibration cap {CALIBRATION_CAP}"
        )
    if n_sources < 1:
        raise ValueError("need at least one source")
    n_sources = min(n_sources, n)

    rng = np.random.default_rng(seed)
    # All randomness is drawn up front so calibration never shifts it.
    h_edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    v_edges = [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    edges = h_edges + v_edges
    mesh_jitter = rng.uniform(0.9, 1.1, size=len(edges))
    gnd_jitter = rng.uniform(0.9, 1.1, size=n)
    cap_jitter = rng.uniform(0.95, 1.05, size=n)
    n_slow = max(3, side // 4)
    slow_nodes = rng.choice(np.arange(n), size=n_slow, replace=False)
    source_nodes = rng.choice(np.arange(n), size=n_sources, replace=False)
    amps = 1e-3 * rng.uniform(0.5, 1.5, size=n_sources)

    # Weak node-to-node coupling keeps the resistive spectrum flat when
    # the target is small; the capacitor spread does the rest. Stiffness
    # is injected the way real grids get it: a handful of nodes carry
    # decap-sized capacitors sigma times the bulk value, giving a slow
    # eigenvalue cluster against the fast bulk instead of a uniform
    # smear across the spectrum.
    r_mesh = 50.0 if stiffness_target < 50.0 else 1.0
    r_gnd = 1.0
    c_base = 1e-15
    exponents = np.zeros(n)
    exponents[slow_nodes] = 1.0

    def build(sigma: float) -> str:
        caps = c_base * np.power(sigma, exponents) * cap_jitter
        lines = [
            f"* RC mesh {side}x{side} seed={seed}",
            f"* capacitor spread sigma={sigma:.9e}",
        ]
        for k, (a, b) in enumerate(edges):
            lines.append(
                f"RM{k} {a + 1} {b + 1} {r_mesh * mesh_jitter[k]:.9e}"
            )
        for i in range(n):
            lines.append(f"RG{i} {i + 1} 0 {r_gnd * gnd_jitter[i]:.9e}")
        for i in range(n):
            lines.append(f"C{i} {i + 1} 0 {caps[i]:.9e}")
        for j, node in enumerate(source_nodes):
            td, tr, tf, tw, tp = _PULSE_MENU[j % len(_PULSE_MENU)]
            lines.append(
                f"I{j} 0 {node + 1} PULSE({0.0:.9e} {amps[j]:.9e} "
                f"{td:.9e} {tr:.9e} {tf:.9e} {tw:.9e} {tp:.9e})"
            )
        lines.append(f".TRAN 0 {t_stop:.9e}")
        lines.append(".END")
        return "\n".join(lines) + "\n"

    def measured(sigma: float) -> float:
        return measure_stiffness(netlist.build_system(build(sigma)))

    target = stiffness_target
    sigma = 1.0
    rho = measured(sigma)
    history = [(sigma, rho)]
    for _ in range(4):
        if abs(math.log10(rho / target)) <= 0.5:
            break
        if len(history) >= 2 and history[-2][0] != sigma:
            s_prev, r_prev = history[-2]
            alpha = (math.log(rho) - math.log(r_prev)) / (
                math.log(sigma) - math.log(s_prev)
            )
            if not (alpha > 0.05):
                alpha = 1.0
        else:
            alpha = 1.0
        sigma = max(
            1.0, math.exp(math.log(sigma) + (math.log(target) - math.log(rho)) / alpha)
        )
        if sigma == history[-1][0]:
            break
        rho = measured(sigma)
        history.append((sigma, rho))

    best_sigma, best_rho = min(
        history, key=lambda sr: abs(math.log10(sr[1] / target))
    )
    return MeshNetlist(
        text=build(best_sigma),
        n_nodes=n,
        measured_stiffness=best_rho,
    )
