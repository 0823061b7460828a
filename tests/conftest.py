"""Shared fixtures: dense reference propagation and frozen test systems.

The dense oracle advances the descriptor system exactly on each interval
where every drive is affine in t, using numpy solves and the scipy
matrix exponential only; it shares no code with the package's stepping
path beyond the closed-form update it implements, so agreement is
meaningful. It requires a nonsingular C (dense A must exist);
dense_exact_singular_c first eliminates the unknowns that carry no
capacitance.

The autouse audit verifies the invariants of every basis krylov.arnoldi
returns during a test as it is returned. read_waveform_csv
parses what cli.write_waveform_csv writes.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import expsim as es
from expsim import krylov, numkit


def read_waveform_csv(fh):
    """Inverse of cli.write_waveform_csv: (times, states, names)."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "time":
        raise ValueError("not a waveform CSV: header must start with 'time'")
    names = header[1:]
    rows = [
        [float(tok) for tok in line.strip().split(",")]
        for line in fh
        if line.strip()
    ]
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != len(names) + 1:
        raise ValueError("malformed waveform CSV")
    return data[:, 0], data[:, 1:], names


def dense_a(system) -> np.ndarray:
    return -np.linalg.solve(system.c.to_dense(), system.g.to_dense())


def source_corners(system, t_start, t_stop):
    corners = {float(t_start), float(t_stop)}
    for w in system.sources:
        corners.update(float(t) for t in w.transition_times(t_start, t_stop))
    return sorted(corners)


def dense_exact(system, times=None):
    """Exact states at the requested times (default: final time only).

    Propagates corner to corner with x(t+h) = e^{hA}(x + F) - P, which
    is the closed-form solution for affine-in-t input; requested times
    that are not corners split the enclosing interval.
    """
    gd, cd, bd = system.g.to_dense(), system.c.to_dense(), system.b.to_dense()
    a = -np.linalg.solve(cd, gd)
    grid = set(source_corners(system, system.t_start, system.t_stop))
    want = [float(system.t_stop)] if times is None else [float(t) for t in times]
    grid.update(want)
    grid = sorted(grid)

    def u_at(t):
        return np.array([w.value(t) for w in system.sources])

    x = np.linalg.solve(gd, bd @ u_at(grid[0]))
    out = {grid[0]: x.copy()}
    for ta, tb in zip(grid[:-1], grid[1:]):
        h = tb - ta
        nudge = h * 1e-9  # evaluate strictly inside the affine piece
        w0 = -np.linalg.solve(gd, bd @ u_at(ta + nudge))
        w1 = -np.linalg.solve(gd, bd @ u_at(tb - nudge))
        th0 = -np.linalg.solve(gd, cd @ w0)
        th1 = -np.linalg.solve(gd, cd @ w1)
        f = w0 + (th1 - th0) / h
        p = w1 + (th1 - th0) / h
        x = scipy.linalg.expm(h * a) @ (x + f) - p
        out[tb] = x.copy()
    if times is None:
        return out[grid[-1]]
    return np.array([out[t] for t in want])


def dense_exact_singular_c(system, times):
    """Exact states at the given times when C has empty rows and columns.

    The unknowns a with no capacitance obey 0 = -G_aa x_a - G_ad x_d
    + B_a u, so x_a = G_aa^-1 (B_a u - G_ad x_d). Substituting that
    into the other rows leaves C_dd x_d' = -S x_d + B_s u with the
    Schur complement S = G_dd - G_da G_aa^-1 G_ad and B_s = B_d -
    G_da G_aa^-1 B_a, whose C_dd is nonsingular, so dense_exact
    propagates it.
    """
    gd, cd, bd = system.g.to_dense(), system.c.to_dense(), system.b.to_dense()
    alg = ~(cd.any(axis=0) | cd.any(axis=1))
    dyn = ~alg
    g_aa, g_ad = gd[np.ix_(alg, alg)], gd[np.ix_(alg, dyn)]
    g_da, b_a = gd[np.ix_(dyn, alg)], bd[alg]
    reduced = replace(
        system,
        c=numkit.from_scipy(sp.csc_matrix(cd[np.ix_(dyn, dyn)])),
        g=numkit.from_scipy(
            sp.csc_matrix(gd[np.ix_(dyn, dyn)] - g_da @ np.linalg.solve(g_aa, g_ad))
        ),
        b=numkit.from_scipy(sp.csc_matrix(bd[dyn] - g_da @ np.linalg.solve(g_aa, b_a))),
    )
    x_d = dense_exact(reduced, times)
    u = np.array([[w.value(float(t)) for w in system.sources] for t in times])
    x = np.empty((len(x_d), system.n))
    x[:, dyn] = x_d
    x[:, alg] = np.linalg.solve(g_aa, b_a @ u.T - g_ad @ x_d.T).T
    return x


def ladder_matrices(n, caps, rng):
    """Grounded RC ladder: random series resistors, prescribed caps."""
    rs = rng.uniform(0.5, 2.0, n + 1)
    gd = np.zeros((n, n))
    for i in range(n):
        gd[i, i] += 1 / rs[i]
        if i + 1 < n:
            gd[i, i] += 1 / rs[i + 1]
            gd[i, i + 1] -= 1 / rs[i + 1]
            gd[i + 1, i] -= 1 / rs[i + 1]
    gd[n - 1, n - 1] += 1 / rs[n]
    return gd, np.diag(np.asarray(caps, dtype=float))


class EstimatorFamily:
    """Frozen n=30 stiff RC family for the estimator spot checks.

    Seconds-scale time constants (the residual formulas are rates, so
    factor-of-true comparisons need h of order one), 3-decade capacitor
    spread, stiffness ~1e5, h = 5 / lambda_max, gamma = h / 10.
    """

    def __init__(self, seed=7, n=30):
        rng = np.random.default_rng(seed)
        caps = np.logspace(0.0, 3.0, n)
        rng.shuffle(caps)
        self.gd, self.cd = ladder_matrices(n, caps, rng)
        self.v = rng.standard_normal(n)
        self.n = n
        self.g = numkit.from_scipy(sp.csc_matrix(self.gd))
        self.c = numkit.from_scipy(sp.csc_matrix(self.cd))
        self.a = -np.linalg.solve(self.cd, self.gd)
        lam = np.linalg.eigvals(self.a).real
        self.h = 5.0 / abs(lam).max()
        self.gamma = self.h / 10.0
        self.operators = {
            "inverted": krylov.factor_operator(self.c, self.g),
            "rational": krylov.factor_operator(self.c, self.g, self.gamma),
        }

    def exact_action(self, h, v=None):
        v = self.v if v is None else v
        return scipy.linalg.expm(h * self.a) @ v


@pytest.fixture(scope="session")
def estimator_family():
    return EstimatorFamily()


@pytest.fixture(scope="session")
def stiff_mesh():
    """Shared stiff mesh: n=400, measured stiffness well above 1e8."""
    mesh = es.generate_mesh_netlist(n_nodes=400, stiffness_target=1e9, seed=7)
    return mesh, es.build_system(mesh.text)


def orthonormality_defect(basis) -> float:
    if basis.m == 0:
        return 0.0
    v = basis.v_basis
    return float(np.abs(v.T @ v - np.eye(basis.m)).max())


def relation_residual(basis) -> tuple[float, float]:
    """(residual, scale) of M V = V H + h_next v_next e_m^T.

    Applies the operator once per column; the solves land on the
    operator's factor tallies. The scale is ||M V||_F for relative
    comparison.
    """
    if basis.m == 0:
        return 0.0, 0.0
    mv = np.column_stack(
        [basis.operator.apply(basis.v_basis[:, j]) for j in range(basis.m)]
    )
    rhs = basis.v_basis @ basis.hessenberg
    rhs[:, -1] += basis.h_next * basis.v_next
    residual = float(np.linalg.norm(mv - rhs))
    return residual, float(np.linalg.norm(mv))


def verify_bases(bases, ortho_tol=1e-8, rel_tol=1e-8) -> int:
    """Check both invariants on every basis; returns the count."""
    for basis in bases:
        defect = orthonormality_defect(basis)
        if defect > ortho_tol:
            raise AssertionError(
                f"orthonormality defect {defect:.3e} exceeds {ortho_tol:.1e} "
                f"(gamma={basis.operator.gamma}, m={basis.m})"
            )
        residual, scale = relation_residual(basis)
        if residual > rel_tol * max(scale, 1.0):
            raise AssertionError(
                f"Arnoldi relation residual {residual:.3e} exceeds "
                f"{rel_tol:.1e} * {scale:.3e} (gamma={basis.operator.gamma}, m={basis.m})"
            )
    return len(bases)


@pytest.fixture(autouse=True)
def audited_bases(monkeypatch):
    """Verify orthonormality and the Arnoldi relation on every basis.

    krylov.arnoldi is replaced for the whole suite, so any run anywhere
    that emits a nonempty basis gets both invariants checked as the
    basis is returned, and no basis is kept. The check applies the
    operator; every factor's solve_count is put back after it, so no
    run's pairs include the audit. Yields a namespace whose count is
    the number of bases audited.
    """
    audit = SimpleNamespace(count=0)
    build = krylov.arnoldi

    def auditing_arnoldi(*args, **kwargs):
        basis = build(*args, **kwargs)
        if basis.m > 0:
            factors = basis.operator.factors()
            counts = [f.solve_count for f in factors]
            verify_bases([basis])
            for f, count in zip(factors, counts):
                f.solve_count = count
            audit.count += 1
        return basis

    monkeypatch.setattr(krylov, "arnoldi", auditing_arnoldi)
    yield audit


LADDER_NETLIST = """* driven ladder, current sources only
R1 1 2 2
R2 2 3 2
R3 3 4 2
R4 4 0 2
R5 1 0 5
C1 1 0 1e-12
C2 2 0 3e-12
C3 3 0 1e-13
C4 4 0 2e-12
I1 0 1 PULSE(0 1e-3 2e-11 1e-11 1e-11 5e-11 2e-10)
I2 0 3 PWL(0 0 5e-11 5e-4 4e-10 5e-4)
.TRAN 0 4e-10
.END
"""

SINGULAR_C_NETLIST = """* rc line with a cap-free joint node
R1 1 2 10
R2 2 3 10
R3 3 4 10
R4 4 0 10
C1 1 0 5e-13
C3 3 0 8e-13
C4 4 0 4e-13
I1 0 1 PULSE(0 2e-3 1e-10 1e-10 1e-10 3e-10 1e-9)
.TRAN 0 1e-9
.END
"""

MIXED_NETLIST = """* six sources, four distinct bump shapes
R1 1 2 1
R2 2 3 1
R3 3 4 1
R4 4 5 1
R5 5 6 1
R6 6 0 1
C1 1 0 1e-12
C2 2 0 1e-12
C3 3 0 1e-12
C4 4 0 1e-12
C5 5 0 1e-12
C6 6 0 1e-12
I1 0 1 PULSE(0 1m 1e-11 1e-11 1e-11 3e-11 2e-10)
I2 0 2 PULSE(0 3m 1e-11 1e-11 1e-11 3e-11 2e-10)
I3 0 3 PULSE(0 1m 5e-11 1e-11 1e-11 3e-11 2e-10)
I4 0 4 PWL(0 0 1e-10 1m 4e-10 1m)
I5 0 5 PWL(0 0 1e-10 2m 4e-10 2m)
I6 0 6 DC 2m
.TRAN 0 4e-10
.END
"""

TWO_SOURCE_NETLIST = """* ladder with one pulsed and one ramped source
I1 0 1 PULSE(0 1e-3 2e-11 1e-11 1e-11 5e-11 2e-10)
I2 0 3 PWL(0 0 5e-11 5e-4 4e-10 5e-4)
R1 1 2 10
R2 2 3 10
R3 3 4 10
R4 4 5 10
R5 5 0 10
C1 1 0 1e-12
C2 2 0 2e-12
C3 3 0 1e-12
C4 4 0 5e-13
.TRAN 0 4e-10
.END
"""

# Inductors and a voltage source: C has an empty branch row, so only
# the estimates that need no C^-1 apply.
RLC_VSOURCE_NETLIST = """* rlc line driven by a voltage source and two currents
V1 in 0 PWL(0 0 2e-11 1 3e-10 1)
R1 in 1 5
L1 1 2 2n
R2 2 3 5
C2 2 0 1e-12
L2 3 4 1n
C3 3 0 2e-12
R4 4 0 50
C4 4 0 5e-13
I1 0 3 PULSE(0 2m 5e-11 1e-11 1e-11 4e-11 1.5e-10)
I2 0 4 PWL(0 0 1e-10 1m 1.2e-10 0)
.TRAN 0 4e-10
.END
"""


SCALAR_RC_NETLIST = """* scalar rc
R1 1 0 1
C1 1 0 1
I1 0 1 PWL(0 0 0.1 1 10 1)
.TRAN 0 2
.END
"""


@pytest.fixture()
def ladder_system():
    return es.build_system(LADDER_NETLIST)


@pytest.fixture()
def singular_c_system():
    return es.build_system(SINGULAR_C_NETLIST)


@pytest.fixture()
def scalar_rc_system():
    return es.build_system(SCALAR_RC_NETLIST)


@pytest.fixture()
def mixed_system():
    return es.build_system(MIXED_NETLIST)
