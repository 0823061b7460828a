"""Property tests over generated RC/RLC/V-source netlists.

Every generated circuit has a DC path at every node: a tree of
resistors and inductors hangs each node off ground (a tree has no
loop, so no inductor loop shorts G), extra resistors only add
conductance, and each voltage source drives its own node through a
resistor. Capacitors, grounded or floating, land on any subset of the
nodes, so C is singular on some examples and not on others; a voltage
source always makes it singular (its branch row of C is empty).
"""

import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsim as es
from expsim import krylov, netlist, stepper
from expsim.errors import NumericalError

VALUES = st.floats(0.5, 2.0)
CAPS = st.floats(0.1, 10.0)


@st.composite
def dc_path_netlists(draw, nonsingular_c=False):
    """With nonsingular_c, every node gets a grounded cap, a floating cap
    joins two of the k >= 2 nodes and no V source is added: C is
    nonsingular and not diagonal."""
    k = draw(st.integers(2 if nonsingular_c else 1, 4))
    i_pos, i_neg = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
    lines = [f"I1 {i_pos} {i_neg} PWL(0 0 0.1 1 1 1)"]
    for i in range(1, k + 1):
        parent = draw(st.integers(0, i - 1))
        kind = draw(st.sampled_from("RL"))
        lines.append(f"{kind}T{i} {i} {parent} {draw(VALUES)!r}")
    for j in range(draw(st.integers(0, 2))):
        a, b = draw(st.lists(st.integers(0, k), min_size=2, max_size=2, unique=True))
        lines.append(f"RX{j} {a} {b} {draw(VALUES)!r}")
    for i in range(1, k + 1):  # else three nodes in four get a grounded cap
        if nonsingular_c or draw(st.integers(0, 3)):
            lines.append(f"CG{i} {i} 0 {draw(CAPS)!r}")
    if k > 1:
        for j in range(draw(st.integers(int(nonsingular_c), 2))):
            a, b = draw(
                st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)
            )
            lines.append(f"CF{j} {a} {b} {draw(CAPS)!r}")
    # else one netlist in three has a V source
    if not nonsingular_c and draw(st.integers(0, 2)) == 0:
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=dc_path_netlists(nonsingular_c=True),
    diagonal=st.booleans(),
    gamma=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scale_floor_bounds_residual_scale(text, diagonal, gamma, seed):
    # Without its floating caps the circuit's C is diagonal (node caps
    # and branch inductances), and the floor is the scale itself.
    if diagonal:
        text = "".join(
            line for line in text.splitlines(True) if not line.startswith("CF")
        )
    system = es.build_system(text)
    cd = system.c.to_dense()
    assert np.array_equal(cd, np.diag(np.diag(cd))) == diagonal
    v = np.random.default_rng(seed).standard_normal(system.n)
    for variant in (krylov.Variant.INVERTED, krylov.Variant.RATIONAL):
        op = krylov.factor_operator(variant, system.c, system.g, gamma)
        basis = krylov.KrylovBasis(
            op, np.empty((system.n, 0)), np.empty((0, 0)), 1.0, v, 1.0
        )
        exact = basis.residual_scale
        floor = op.scale_floor(v)
        assert floor * krylov.FLOOR_MARGIN <= exact
        if diagonal:
            assert floor == pytest.approx(exact, rel=1e-12, abs=0.0)
        else:
            assert floor <= exact * (1.0 + 1e-12)


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


def period_loop_corners(w, t_start, t_stop):
    """Pulse.transition_times one period and one corner at a time."""
    fall_start = w.t_rise + w.t_width
    offsets = (0.0, w.t_rise, fall_start, fall_start + w.t_fall)
    k = 0
    times = []
    while w.t_delay + k * w.t_period <= t_stop:
        for off in offsets:
            c = round((w.t_delay + k * w.t_period + off) / netlist.TIME_QUANTUM)
            c *= netlist.TIME_QUANTUM
            if t_start <= c <= t_stop:
                times.append(c)
        k += 1
    return np.unique(np.asarray(times, dtype=np.float64))


def scalar_pulse(w, t):
    """Pulse.value for one float time."""
    if t < w.t_delay:
        return w.v1
    tau = math.fmod(t - w.t_delay, w.t_period)
    fall_start = w.t_rise + w.t_width
    if tau < w.t_rise:
        return w.v1 + (w.v2 - w.v1) / w.t_rise * tau
    if tau < fall_start:
        return w.v2
    if tau < fall_start + w.t_fall:
        return w.v2 + (w.v1 - w.v2) / w.t_fall * (tau - fall_start)
    return w.v1


def scalar_pwl(w, t):
    """Pwl.value for one float time."""
    pts = w.points
    if t < pts[0][0]:
        return pts[0][1]
    if t >= pts[-1][0]:
        return pts[-1][1]
    i = bisect.bisect_right([p[0] for p in pts], t) - 1
    t0, v0 = pts[i]
    t1, v1 = pts[i + 1]
    return v0 + (v1 - v0) / (t1 - t0) * (t - t0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=pulses_and_spans())
def test_pulse_corners_in_a_span_are_the_clipped_full_sweep(case):
    pulse, t0, t1 = case
    full = pulse.transition_times(0.0, t1)
    want = full[(full >= t0) & (full <= t1)]
    got = pulse.transition_times(t0, t1)
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == period_loop_corners(pulse, t0, t1).tobytes()


LEVELS = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)


@st.composite
def driven_systems(draw):
    """PULSE, PWL and DC sources with drawn levels, and times to sample.

    The times hold the corners, exact and snapped, the PWL points,
    drawn and snapped, times before the delay and the first point and
    after the last, and times drawn over the span, in no order.
    """
    unit = 10.0 ** draw(st.integers(-15, -6))
    t_rise, t_fall, t_width = (draw(st.floats(0.01, 1.0)) * unit for _ in range(3))
    period = (t_rise + t_fall + t_width) * draw(st.floats(1.001, 3.0))
    delay = draw(st.floats(0.0, 3.0)) * period
    knots = sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True)))
    # PWL times snap to the femtosecond grid, where two that meet are
    # refused; more than 1 fs apart, no two snap to the same spot.
    knot_gap = max(period / 4.0, 2 * netlist.TIME_QUANTUM)
    pwl = [(k * knot_gap, draw(LEVELS)) for k in knots]
    pwl_text = " ".join(f"{t!r} {v!r}" for t, v in pwl)
    text = (
        f"I1 0 1 PULSE({draw(LEVELS)!r} {draw(LEVELS)!r} {delay!r} {t_rise!r} "
        f"{t_fall!r} {t_width!r} {period!r})\n"
        f"I2 0 1 PWL({pwl_text})\nI3 0 1 DC {draw(LEVELS)!r}\n"
        "R1 1 0 1\nC1 1 0 1\n"
    )
    system = es.build_system(text)
    pulse = system.sources[0]
    t_end = 12.0 * period
    exact = [delay + k * period + off for k in range(3)
             for off in (0.0, t_rise, t_rise + t_width, t_rise + t_width + t_fall)]
    times = [
        *exact,
        *pulse.transition_times(0.0, t_end),
        *(t for t, _ in pwl),
        *(t for t, _ in system.sources[1].points),
        -period, 0.0, delay / 2.0, t_end + period,
        *(draw(st.floats(0.0, 1.0)) * t_end for _ in range(draw(st.integers(0, 8)))),
    ]
    return system, np.array(draw(st.permutations(times)), dtype=np.float64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=driven_systems())
def test_bulk_source_values_are_the_scalar_formulas(case):
    system, times = case
    oracles = (scalar_pulse, scalar_pwl, lambda w, t: w.level)
    want = np.array(
        [[oracle(w, float(t)) for t in times] for w, oracle in zip(system.sources, oracles)]
    )
    for w, row in zip(system.sources, want):
        assert w.value(times).tobytes() == row.tobytes()
        assert np.array([w.value(float(t)) for t in times]).tobytes() == row.tobytes()
    table = system.eval_sources(times)
    assert table.shape == want.shape
    assert table.tobytes() == want.tobytes()
    columns = np.column_stack([system.eval_sources(float(t)) for t in times])
    assert table.tobytes() == columns.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(text=dc_path_netlists())
def test_stamp_matches_dense_incidence_stamp(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # every node has a DC path
        system = es.build_system(text)
    c, g, b = dense_stamp(netlist.parse_netlist(text))
    for got, want in ((system.c, c), (system.g, g), (system.b, b)):
        np.testing.assert_allclose(got.to_dense(), want, rtol=1e-13, atol=0)


@st.composite
def spans_and_spots(draw):
    t0 = draw(st.floats(-1e-3, 1e-3))
    t1 = t0 + draw(st.floats(1e-15, 1e-3))
    fs = netlist.TIME_QUANTUM
    near_ends = st.builds(
        lambda end, d: end + d, st.sampled_from([t0, t1]), st.floats(-3 * fs, 3 * fs)
    )
    anywhere = st.floats(t0 - (t1 - t0), t1 + (t1 - t0))
    spots = draw(st.lists(st.one_of(near_ends, anywhere), max_size=20))
    if spots:
        # Neighbours an ulp or a few femtoseconds apart snap together or not.
        for s in draw(st.lists(st.sampled_from(spots), max_size=5)):
            spots.append(s + draw(st.sampled_from([5e-20, fs / 3, fs, 2 * fs])))
    return t0, t1, spots


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=spans_and_spots())
def test_stepping_points_are_the_snapped_spots_between_the_ends(case):
    t0, t1, spots = case
    points = stepper.stepping_points(t0, t1, np.array(spots))
    q = netlist.quantize_time
    expected = sorted({float(q(s)) for s in spots if q(t0) < q(s) < q(t1)})
    assert np.all(np.diff(points) > 0)
    assert points[0] == t0 and points[-1] == t1
    assert points[1:-1].tolist() == expected
