"""Accuracy reference for the benchmark meshes, from scipy alone.

The reference integrates C x' = -G x + B u(t) with the 3-stage Radau
IIA method (order 5, L-stable) at a fixed step H whose grid lands on
every input corner. Between corners the drive is affine, u = a + b t,
and for such a drive a collocation method reproduces the affine
particular solution x_p(t) = p0 + p1 t exactly, so one Radau step is

    x(t + H) = x_p(t + H) + R(H A) (x(t) - x_p(t)),   A = -C^-1 G,

with G p1 = B b, G p0 = B a - C p1 and R the (2, 3) Pade approximant of
exp. G^-1 B and G^-1 C G^-1 B are computed once, so p0 and p1 cost no
solves per corner. R has one real pole and a complex-conjugate pair, so applying it
takes one real and one complex sparse solve per step:

    R(H A) y = -sum_i c_i (H G + q_i C)^-1 C y.

The reference is the run at H/2, and Richardson's estimate of its
error from the run at H, |x_H/2 - x_H| / (2^5 - 1), is its reported
uncertainty. The estimate holds whenever halving the step cuts the
error at least 2^5-fold: at the asymptotic rate on smooth modes, and
by far more on the stiff modes that input corners excite, where R
decays like 1/(H lambda). The extrapolated value x_H/2 + (x_H/2 - x_H)/31
is not used: on the stiff modes the correction is not asymptotic and
adds back about 1/31 of the coarse run's error, which on the benchmark
meshes made the extrapolation 15 times less accurate than x_H/2.
Nothing here touches the program under test, so the reference is the
same for every version of it.

Run as a script it computes the reference of one mesh into an .npz
file, the two step sizes in two processes; the benchmark starts it as
a child process so that its memory does not count in the benchmark's
peak resident size:

    python3 perfbench/reference.py --side 200 --sources 12 --shapes 3 \
        --seed 1 --out ref.npz
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import meshes  # noqa: E402

ORDER = 5
# Stability function of 3-stage Radau IIA, coefficients low to high.
_P = np.array([1.0, 2.0 / 5.0, 1.0 / 20.0])
_Q = np.array([1.0, -3.0 / 5.0, 3.0 / 20.0, -1.0 / 60.0])
_POLES = np.roots(_Q[::-1])
_RESIDUES = np.polyval(_P[::-1], _POLES) / np.polyval(np.polyder(_Q[::-1]), _POLES)
REAL_POLE = float(_POLES[np.argmin(abs(_POLES.imag))].real)
REAL_RESIDUE = float(_RESIDUES[np.argmin(abs(_POLES.imag))].real)
CPLX_POLE = complex(_POLES[np.argmax(_POLES.imag)])
CPLX_RESIDUE = complex(_RESIDUES[np.argmax(_POLES.imag)])

FS = 1e-15
STEP = 5e-12


def stability(z):
    """R(z) evaluated from the partial fractions the solver uses."""
    zc = np.asarray(z, dtype=complex)
    r = REAL_RESIDUE / (zc - REAL_POLE) + CPLX_RESIDUE / (zc - CPLX_POLE)
    r = r + np.conj(CPLX_RESIDUE) / (zc - np.conj(CPLX_POLE))
    return r.real if np.isrealobj(z) else r


def _splu(a):
    # G is symmetric positive definite and C diagonal positive, so every
    # matrix factored here is symmetric with a positive definite
    # Hermitian part: LU without pivoting is stable, and a symmetric
    # fill-reducing ordering halves the fill of the default one.
    return spla.splu(
        sp.csc_matrix(a),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def radau(g, c, b, u, corners, t_stop, h, keep=1):
    """(times, states) on the grid 0, keep*h, 2*keep*h, ..., from DC.

    g, c, b are scipy sparse matrices, u(t) returns source values of
    shape (len(t), n_src) and corners lists the times where the drive
    changes slope. Each corner and t_stop must be a multiple of h; the
    states of every keep-th step are returned.
    """
    h_fs = int(round(h / FS))
    n_steps = int(round(t_stop / FS)) // h_fs
    if n_steps * h_fs != int(round(t_stop / FS)):
        raise ValueError("step does not divide the span")
    corner_steps = set()
    for t in corners:
        k, rem = divmod(int(round(t / FS)), h_fs)
        if rem:
            raise ValueError(f"corner {t!r} is not on the {h!r} grid")
        corner_steps.add(k)
    corner_steps = sorted(corner_steps | {0, n_steps})

    g, c = sp.csc_matrix(g), sp.csc_matrix(c)
    lu_g = _splu(g)
    lu_r = _splu(h * g + REAL_POLE * c)
    lu_c = _splu((h * g + CPLX_POLE * c).astype(complex))
    w = lu_g.solve(np.asarray(sp.csc_matrix(b).todense()))  # G^-1 B
    theta = lu_g.solve(c @ w)  # G^-1 C G^-1 B

    times = np.arange(n_steps + 1) * h_fs * FS
    out = np.empty((n_steps // keep + 1, g.shape[0]))
    x = w @ u(times[:1])[0]
    out[0] = x
    for k0, k1 in zip(corner_steps[:-1], corner_steps[1:]):
        ua, ub = u(times[[k0, k1]])
        slope = (ub - ua) / (times[k1] - times[k0])
        p1 = w @ slope
        p0 = w @ ua - theta @ slope
        for k in range(k0, k1):
            cy = c @ (x - (p0 + p1 * (times[k] - times[k0])))
            y = -REAL_RESIDUE * lu_r.solve(cy) - 2.0 * (
                CPLX_RESIDUE * lu_c.solve(cy.astype(complex))
            ).real
            x = p0 + p1 * (times[k + 1] - times[k0]) + y
            if (k + 1) % keep == 0:
                out[(k + 1) // keep] = x
    return times[::keep], out


def richardson(g, c, b, u, corners, t_stop, h=STEP):
    """(times, states, uncertainty) on the h grid.

    The states are the run at h/2; uncertainty holds, per sample, the
    max-norm Richardson estimate of their error, |x_h/2 - x_h| / (2^ORDER - 1).
    """
    times, coarse = radau(g, c, b, u, corners, t_stop, h)
    _, fine = radau(g, c, b, u, corners, t_stop, h / 2.0, keep=2)
    return combine(times, coarse, fine)


def combine(times, coarse, fine):
    return times, fine, np.abs(fine - coarse).max(axis=1) / (2.0**ORDER - 1.0)


def _mesh_run(mesh_args, h, keep):
    mesh = meshes.grid_mesh(*mesh_args)
    return radau(mesh.g, mesh.c, mesh.b, mesh.u, mesh.corners(), mesh.t_stop, h, keep)


def mesh_reference(mesh_args, h=STEP):
    """richardson() for grid_mesh(*mesh_args), the finer run in a
    second process."""
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        fine = pool.submit(_mesh_run, mesh_args, h / 2.0, 2)
        times, coarse = _mesh_run(mesh_args, h, 1)
        return combine(times, coarse, fine.result()[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", type=int, required=True)
    ap.add_argument("--sources", type=int, required=True)
    ap.add_argument("--shapes", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    times, states, unc = mesh_reference((args.side, args.sources, args.shapes, args.seed))
    tmp = args.out + ".tmp.npz"
    np.savez(tmp, times=times, states=states, uncertainty=unc)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
