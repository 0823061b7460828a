"""Checks on the benchmark's reference and mesh generator.

Run from the repository root:

    python3 -m pytest perfbench -q

The reference is compared with a dense exact corner-to-corner
propagation on small meshes with a nonsingular C: on each interval
where the drive is affine, x(t + h) = e^{hA} (x + F) - P, the closed
form that tests/conftest.py's dense_exact uses.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import meshes  # noqa: E402
import reference  # noqa: E402


def dense_exact(g, c, b, u, times):
    """Exact states at `times`, which must include every input corner.

    C is diagonal positive here, so e^{hA} comes from the eigenpairs of
    the symmetric C^-1/2 G C^-1/2, which keeps every mode accurate to
    rounding however stiff the mesh is.
    """
    gd, cd, bd = (np.asarray(sp.csc_matrix(m).todense()) for m in (g, c, b))
    s = 1.0 / np.sqrt(np.diag(cd))
    lam, vec = scipy.linalg.eigh(s[:, None] * gd * s[None, :])
    expm = {}
    x = np.linalg.solve(gd, bd @ u(times[:1])[0])
    out = [x]
    for ta, tb in zip(times[:-1], times[1:]):
        h = tb - ta
        key = round(h / 1e-15)
        if key not in expm:
            expm[key] = (s[:, None] * vec * np.exp(-h * lam)) @ (vec.T / s[None, :])
        ua, ub = u(np.array([ta, tb]))
        w0 = -np.linalg.solve(gd, bd @ ua)
        w1 = -np.linalg.solve(gd, bd @ ub)
        th0 = -np.linalg.solve(gd, cd @ w0)
        th1 = -np.linalg.solve(gd, cd @ w1)
        x = expm[key] @ (x + w0 + (th1 - th0) / h) - (w1 + (th1 - th0) / h)
        out.append(x)
    return np.array(out)


def ladder(n=8, seed=3):
    """Grounded RC ladder with nanosecond time constants."""
    rng = np.random.default_rng(seed)
    rs = rng.uniform(500.0, 1500.0, n + 1)
    gd = np.zeros((n, n))
    for i in range(n):
        gd[i, i] += 1 / rs[i]
        if i + 1 < n:
            gd[i, i] += 1 / rs[i + 1]
            gd[[i, i + 1], [i + 1, i]] -= 1 / rs[i + 1]
    cd = np.diag(rng.uniform(1e-12, 3e-12, n))
    pulses = (
        meshes.Pulse(1e-3, 0.2e-9, 0.2e-9, 0.4e-9, 0.4e-9, 3e-9),
        meshes.Pulse(5e-4, 0.4e-9, 0.6e-9, 0.2e-9, 0.2e-9, 3e-9),
    )
    b = np.zeros((n, 2))
    b[0, 0] = b[n // 2, 1] = 1.0

    def u(t):
        return np.column_stack([p.value(t) for p in pulses])

    corners = sorted({0.0, 4e-9, *(t for p in pulses for t in p.corners(4e-9))})
    return sp.csc_matrix(gd), sp.csc_matrix(cd), sp.csc_matrix(b), u, corners, 4e-9


def test_stability_function_is_order_5_and_l_stable():
    z = np.array([-0.4, -0.2])
    err = np.abs(reference.stability(z) - np.exp(z))
    assert 2**5.5 < err[0] / err[1] < 2**6.5
    assert abs(reference.stability(np.array([-1e9]))[0]) < 1e-8


def test_radau_converges_at_order_5():
    g, c, b, u, corners, t_stop = ladder()
    h = 0.2e-9
    times, _ = reference.radau(g, c, b, u, corners, t_stop, h)
    exact = dense_exact(g, c, b, u, times)
    runs = [
        reference.radau(g, c, b, u, corners, t_stop, h / 2**k, keep=2**k)[1]
        for k in range(3)
    ]
    errs = [np.abs(r - exact).max() for r in runs]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((orders > 4.5) & (orders < 5.5)), orders
    for k in range(2):
        _, states, unc = reference.combine(times, runs[k], runs[k + 1])
        err = np.abs(states - exact).max(axis=1)
        assert np.all(err <= 1.2 * unc + 1e-18), (err / unc).max()


def test_reference_matches_dense_exact_on_a_stiff_grid():
    mesh = meshes.grid_mesh(6, 3, 3, seed=5)
    times, states, unc = reference.richardson(
        mesh.g, mesh.c, mesh.b, mesh.u, mesh.corners(), mesh.t_stop
    )
    exact = dense_exact(mesh.g, mesh.c, mesh.b, mesh.u, times)
    peak = np.abs(exact).max()
    err = np.abs(states - exact).max(axis=1)
    # Stiff modes make the estimate pessimistic, never optimistic; both
    # propagations carry about 1e-11 relative rounding after 300 steps.
    assert np.all(err <= np.maximum(unc, 1e-10 * peak))
    assert err.max() <= 1e-9 * peak
    assert unc.max() <= 1e-8 * peak


def test_mesh_text_and_matrices_describe_one_circuit():
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isdir(os.path.join(src, "expsim")):
        pytest.skip("program sources not present")
    sys.path.insert(0, src)
    from expsim import netlist

    mesh = meshes.grid_mesh(7, 5, 8, seed=2)
    system = netlist.build_system(mesh.text)
    node = np.array([int(name[2:-1]) - 1 for name in system.names])
    perm = sp.csc_matrix((np.ones(mesh.n), (node, np.arange(mesh.n))))
    for mine, theirs in ((mesh.g, system.g), (mesh.c, system.c)):
        assert abs(perm @ theirs.scipy @ perm.T - mine).max() <= 1e-12 * abs(mine).max()
    assert abs(perm @ system.b.scipy - mesh.b).max() == 0.0
    t = np.linspace(0.0, mesh.t_stop, 997)
    theirs = np.array([[w.value(ti) for w in system.sources] for ti in t])
    assert np.allclose(theirs, mesh.u(t), rtol=0, atol=1e-15)
    assert system.t_stop == mesh.t_stop
