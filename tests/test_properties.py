"""Property tests over generated RC/RLC/V-source netlists.

Every generated circuit has a DC path at every node: a tree of
resistors and inductors hangs each node off ground (a tree has no
loop, so no inductor loop shorts G), extra resistors only add
conductance, and each voltage source drives its own node through a
resistor. Capacitors, grounded or floating, land on any subset of the
nodes, so C is singular on some examples and not on others; a voltage
source always makes it singular (its branch row of C is empty).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsim as es
from expsim import krylov, netlist
from expsim.errors import NumericalError

VALUES = st.floats(0.5, 2.0)
CAPS = st.floats(0.1, 10.0)


@st.composite
def dc_path_netlists(draw):
    k = draw(st.integers(1, 4))
    i_pos, i_neg = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
    lines = [f"I1 {i_pos} {i_neg} PWL(0 0 0.1 1 1 1)"]
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


def dense_stamp(parsed):
    """C, G, B written from each element's incidence vector a.

    R adds aa^T/R to G and C adds C aa^T to C. An L or V branch k adds
    a as column k and row k of G; L adds -L at C[k, k] and V a 1 at
    B[k, its source]. An I source subtracts a from its column of B.
    """
    elements = list(zip(parsed.kinds, parsed.names, parsed.pos, parsed.neg, parsed.values))
    nodes = []
    for _, _, pos, neg, _ in elements:
        nodes += [x for x in (pos, neg) if x != "0" and x not in nodes]
    branches = [name for kind, name, *_ in elements if kind in "LV"]
    sources = [name for kind, name, *_ in elements if kind in "IV"]
    n = len(nodes) + len(branches)
    c, g, b = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, len(sources)))
    for kind, name, pos, neg, value in elements:
        a = np.zeros(n)
        for node, sign in ((pos, 1.0), (neg, -1.0)):
            if node != "0":
                a[nodes.index(node)] = sign
        if kind == "R":
            g += np.outer(a, a) / value
        elif kind == "C":
            c += np.outer(a, a) * value
        elif kind == "I":
            b[:, sources.index(name)] -= a
        else:
            k = len(nodes) + branches.index(name)
            g[:, k] += a
            g[k, :] += a
            if kind == "L":
                c[k, k] -= value
            else:
                b[k, sources.index(name)] = 1.0
    return c, g, b


@st.composite
def pulses_and_spans(draw):
    """A pulse at a drawn time scale and a span that may start periods late."""
    unit = 10.0 ** draw(st.integers(-15, -6))
    t_rise, t_fall, t_width = (draw(st.floats(0.01, 1.0)) * unit for _ in range(3))
    period = (t_rise + t_fall + t_width) * draw(st.floats(1.001, 3.0))
    delay = draw(st.floats(0.0, 20.0)) * period
    pulse = netlist.Pulse(0.0, 1.0, delay, t_rise, t_fall, t_width, period)
    t0 = draw(st.floats(0.0, 50.0)) * period
    if draw(st.booleans()):  # start on a corner
        t0 = draw(st.sampled_from(pulse.transition_times(0.0, 50.0 * period).tolist()))
    return pulse, t0, t0 + draw(st.floats(0.0, 20.0)) * period


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=pulses_and_spans())
def test_pulse_corners_in_a_span_are_the_clipped_full_sweep(case):
    pulse, t0, t1 = case
    full = pulse.transition_times(0.0, t1)
    want = full[(full >= t0) & (full <= t1)]
    np.testing.assert_array_equal(pulse.transition_times(t0, t1), want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(text=dc_path_netlists())
def test_stamp_matches_dense_incidence_stamp(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # every node has a DC path
        system = es.build_system(text)
    c, g, b = dense_stamp(netlist.parse_netlist(text))
    for got, want in ((system.c, c), (system.g, g), (system.b, b)):
        np.testing.assert_allclose(got.to_dense(), want, rtol=1e-13, atol=0)
