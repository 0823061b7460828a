"""Property tests over generated RC/RLC/V-source netlists.

Every generated circuit has a DC path at every node: a tree of
resistors and inductors hangs each node off ground (a tree has no
loop, so no inductor loop shorts G), extra resistors only add
conductance, and each voltage source drives its own node through a
resistor. Capacitors, grounded or floating, land on any subset of the
nodes, so C is singular on some examples and not on others; a voltage
source always makes it singular (its branch row of C is empty).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsim as es
from expsim import krylov
from expsim.errors import NumericalError

VALUES = st.floats(0.5, 2.0)
CAPS = st.floats(0.1, 10.0)


@st.composite
def dc_path_netlists(draw):
    k = draw(st.integers(1, 4))
    lines = ["I1 0 1 PWL(0 0 0.1 1 1 1)"]
    for i in range(1, k + 1):
        parent = draw(st.integers(0, i - 1))
        kind = draw(st.sampled_from("RL"))
        lines.append(f"{kind}T{i} {i} {parent} {draw(VALUES)!r}")
    for j in range(draw(st.integers(0, 2))):
        a, b = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
        lines.append(f"RX{j} {a} {b} {draw(VALUES)!r}")
    for i in range(1, k + 1):
        if draw(st.integers(0, 3)):  # three nodes in four get a grounded cap
            lines.append(f"CG{i} {i} 0 {draw(CAPS)!r}")
    if k > 1:
        for j in range(draw(st.integers(0, 2))):
            a, b = draw(
                st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)
            )
            lines.append(f"CF{j} {a} {b} {draw(CAPS)!r}")
    if draw(st.integers(0, 2)) == 0:  # one netlist in three has a V source
        lines.append(f"V1 {k + 1} 0 DC 1")
        lines.append(f"RV1 {k + 1} {draw(st.integers(1, k))} {draw(VALUES)!r}")
    lines += [".TRAN 0 1", ".END"]
    return "\n".join(lines) + "\n"


def dense_build_operator(variant, cd, gd, gamma):
    if variant is krylov.Variant.STANDARD:
        return -np.linalg.solve(cd, gd)
    if variant is krylov.Variant.INVERTED:
        return -np.linalg.solve(gd, cd)
    return np.linalg.solve(cd + gamma * gd, cd)


def assert_close(got, want, matrix, v):
    # Normwise relative: the error against ||M|| ||v||.
    scale = np.linalg.norm(matrix) * np.linalg.norm(v)
    assert np.linalg.norm(got - want) <= 1e-9 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=dc_path_netlists(),
    gamma=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_operator_matches_dense(text, gamma, seed):
    system = es.build_system(text)
    cd, gd = system.c.to_dense(), system.g.to_dense()
    c_singular = np.linalg.matrix_rank(cd) < system.n
    v = np.random.default_rng(seed).standard_normal(system.n)
    for variant in krylov.Variant:
        if variant is krylov.Variant.STANDARD and c_singular:
            with pytest.raises(NumericalError):
                krylov.factor_operator(variant, system.c, system.g, gamma)
            continue
        op = krylov.factor_operator(variant, system.c, system.g, gamma)
        assert (op.c_factors is None) == c_singular
        rational = variant is krylov.Variant.RATIONAL
        assert len(op.factors()) == 1 + (not c_singular) + rational

        m = dense_build_operator(variant, cd, gd, gamma)
        assert_close(op.apply(v), m @ v, m, v)
        if not c_singular:
            a = -np.linalg.solve(cd, gd)
            assert_close(op.ode_apply(v), a @ v, a, v)

        pairs = sum(f.solve_count for f in op.factors())
        op.apply(v)
        assert sum(f.solve_count for f in op.factors()) == pairs + 1
