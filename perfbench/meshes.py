"""Seeded stiff R-C grid netlists, as text and as matrices.

The generator follows the pattern of ``expsim.meshgen`` (a jittered
resistor grid, a grounded resistor and capacitor at every node, decap
sized capacitors on a few nodes, pulsed current sources) but skips its
dense stiffness calibration, so it scales to any grid. It returns the
netlist text that the program under test parses and, independently of
the program, the matrices of the same circuit for the reference:

    C x' = -G x + B u(t),   x = node voltages, node k+1 at index k.

Every element value is rounded to the ten significant digits the text
carries before it enters a matrix, so text and matrices describe the
same circuit exactly. Equal arguments give identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

R_MESH = 1.0
R_GND = 1.0
C_BULK = 1e-15
# Decap nodes carry SIGMA times the bulk capacitance.
SIGMA = 1e6
SLOW_SHARE = 0.01
T_STOP = 1.5e-9
LAYOUT_SEED = 20151116

# (t_delay, t_rise, t_fall, t_width, t_period) in seconds. The first
# three are the meshgen menu; the others add distinct bump shapes for
# the superposition workload. Every corner is a multiple of 5 ps, the
# reference's step.
PULSE_MENU = (
    (10e-12, 5e-12, 5e-12, 10e-12, 150e-12),
    (20e-12, 5e-12, 5e-12, 20e-12, 150e-12),
    (40e-12, 10e-12, 10e-12, 20e-12, 150e-12),
    (15e-12, 10e-12, 10e-12, 15e-12, 150e-12),
    (30e-12, 5e-12, 5e-12, 25e-12, 150e-12),
    (50e-12, 5e-12, 10e-12, 30e-12, 150e-12),
    (60e-12, 10e-12, 5e-12, 15e-12, 150e-12),
    (25e-12, 15e-12, 15e-12, 10e-12, 150e-12),
)


def _r(x):
    """Round to the digits the netlist text carries."""
    return float(f"{x:.9e}")


@dataclass(frozen=True)
class Pulse:
    """PULSE(0 amp td tr tf tw tp): a periodic trapezoid from zero."""

    amp: float
    t_delay: float
    t_rise: float
    t_fall: float
    t_width: float
    t_period: float

    def corners(self, t_stop: float) -> list[float]:
        """Slope-change times in [0, t_stop]."""
        out = []
        k = 0
        while self.t_delay + k * self.t_period <= t_stop:
            base = self.t_delay + k * self.t_period
            for off in (0.0, self.t_rise, self.t_rise + self.t_width,
                        self.t_rise + self.t_width + self.t_fall):
                if base + off <= t_stop:
                    out.append(base + off)
            k += 1
        return out

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        tau = np.mod(t - self.t_delay, self.t_period)
        fall_start = self.t_rise + self.t_width
        fall_end = fall_start + self.t_fall
        v = np.where(
            tau < self.t_rise,
            tau / self.t_rise,
            np.where(
                tau < fall_start,
                1.0,
                np.where(tau < fall_end, 1.0 - (tau - fall_start) / self.t_fall, 0.0),
            ),
        )
        return self.amp * np.where(t < self.t_delay, 0.0, v)


@dataclass(frozen=True)
class Mesh:
    text: str
    side: int
    g: sp.csc_matrix
    c: sp.csc_matrix
    b: sp.csc_matrix
    pulses: tuple[Pulse, ...]
    t_stop: float

    @property
    def n(self) -> int:
        return self.side * self.side

    def u(self, t) -> np.ndarray:
        """Source values at times t, shape (len(t), n_sources)."""
        return np.column_stack([p.value(t) for p in self.pulses])

    def corners(self) -> np.ndarray:
        """Every source's slope-change times in the span, plus its ends."""
        times = {0.0, self.t_stop}
        for p in self.pulses:
            times.update(p.corners(self.t_stop))
        return np.array(sorted(times))


def grid_mesh(side: int, n_sources: int, n_shapes: int, seed: int) -> Mesh:
    """A side x side stiff R-C grid with n_sources pulsed sources.

    Source j uses bump shape j mod n_shapes of PULSE_MENU. The seed
    draws resistor and capacitor jitter and the source amplitudes. The
    layout, which nodes carry decaps and which carry sources, is the same
    for every seed: where the sources sit relative to the decaps sets
    the Krylov basis sizes, so a seeded layout would move the work per
    run by about 10 % from seed to seed.
    """
    if not 1 <= n_shapes <= len(PULSE_MENU):
        raise ValueError(f"n_shapes must be in 1..{len(PULSE_MENU)}")
    n = side * side
    layout = np.random.default_rng(LAYOUT_SEED)
    slow = layout.choice(n, size=max(1, int(round(SLOW_SHARE * n))), replace=False)
    src_nodes = layout.choice(n, size=n_sources, replace=False)
    rng = np.random.default_rng(seed)
    idx = np.arange(n).reshape(side, side)
    ea = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    eb = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    r_mesh = np.array([_r(x) for x in R_MESH * rng.uniform(0.9, 1.1, ea.size)])
    r_gnd = np.array([_r(x) for x in R_GND * rng.uniform(0.9, 1.1, n)])
    caps = C_BULK * rng.uniform(0.95, 1.05, n)
    caps[slow] *= SIGMA
    caps = np.array([_r(x) for x in caps])
    amps = 1e-3 * rng.uniform(0.5, 1.5, n_sources)
    pulses = tuple(
        Pulse(_r(a), *(_r(x) for x in PULSE_MENU[j % n_shapes]))
        for j, a in enumerate(amps)
    )

    lines = [f"* stiff RC grid {side}x{side} seed={seed}"]
    lines += [f"RM{k} {a + 1} {b + 1} {r:.9e}" for k, (a, b, r) in enumerate(zip(ea, eb, r_mesh))]
    lines += [f"RG{i} {i + 1} 0 {r:.9e}" for i, r in enumerate(r_gnd)]
    lines += [f"C{i} {i + 1} 0 {c:.9e}" for i, c in enumerate(caps)]
    for j, (node, p) in enumerate(zip(src_nodes, pulses)):
        lines.append(
            f"I{j} 0 {node + 1} PULSE(0 {p.amp:.9e} {p.t_delay:.9e} {p.t_rise:.9e} "
            f"{p.t_fall:.9e} {p.t_width:.9e} {p.t_period:.9e})"
        )
    lines += [f".TRAN 0 {T_STOP:.9e}", ".END"]

    gm = 1.0 / r_mesh
    g = sp.coo_matrix(
        (
            np.concatenate([gm, gm, -gm, -gm, 1.0 / r_gnd]),
            (
                np.concatenate([ea, eb, ea, eb, np.arange(n)]),
                np.concatenate([ea, eb, eb, ea, np.arange(n)]),
            ),
        ),
        shape=(n, n),
    ).tocsc()
    b = sp.csc_matrix(
        (np.ones(n_sources), (src_nodes, np.arange(n_sources))), shape=(n, n_sources)
    )
    return Mesh(
        text="\n".join(lines) + "\n",
        side=side,
        g=g,
        c=sp.diags(caps, format="csc"),
        b=b,
        pulses=pulses,
        t_stop=T_STOP,
    )
