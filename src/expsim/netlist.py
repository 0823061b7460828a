"""Netlist parsing and modified-nodal-analysis assembly.

The accepted text format is a small SPICE-like dialect, one element per
line, '*' or ';' comment lines and trailing '; ...' comments,
case-insensitive, with engineering suffixes on finite numbers
(f p n u m k meg g t) and no ',' in names. Supported cards::

    R<name> n+ n- <value>
    C<name> n+ n- <value>
    L<name> n+ n- <value>
    I<name> n+ n- DC <value> | PULSE(v1 v2 td tr tf tw tp) | PWL(t1 v1 ...)
    V<name> n+ n- DC <value> | PULSE(...) | PWL(...)
    .TRAN <tstart> <tstop>
    .END

Parsing checks each line in order and keeps the elements as columns,
one list per field. Node "0" is ground and is eliminated. Unknowns are
the non-ground node voltages in first-appearance order followed by the
branch currents of voltage sources and inductors in appearance order.
Assembly numbers the nodes into index arrays, stamps each element kind
as numpy index and value arrays in netlist order and converts them to
CSC once per matrix, producing the descriptor system

    C xdot(t) = -G x(t) + B u(t)

where u(t) stacks the independent source values. C is kept exactly as
stamped; it is singular whenever a node carries no capacitance or a
voltage source is present, and downstream solvers are expected to cope
(or to fail loudly) rather than have the matrix nudged here.
"""

from __future__ import annotations

import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import numkit
from .errors import NetlistError, NoDcOperatingPoint, NumericalError

_PACKAGE_DIR = os.path.dirname(__file__)

# Spot times are snapped to this grid so set operations on them are exact:
# two times are one spot exactly when they snap to the same femtosecond.
TIME_QUANTUM = 1e-15

# A number, at most one engineering suffix, then the rest of the token.
_NUMBER = re.compile(r"([+-]?(?:\d+\.?\d*|\.\d+)(?:E[+-]?\d+)?)(MEG|[FPNUMKGT])?(.*)", re.S)
_SUFFIXES = {
    "MEG": 1e6, "F": 1e-15, "P": 1e-12, "N": 1e-9, "U": 1e-6,
    "M": 1e-3, "K": 1e3, "G": 1e9, "T": 1e12,
}


def parse_value(token: str) -> float:
    """Parse a number with an optional engineering suffix.

    Trailing unit letters after the suffix are ignored ("10ps", "2pF").
    A number that overflows to infinity is rejected.
    """
    text = token.strip().upper()
    match = _NUMBER.match(text)
    if match is None:
        raise ValueError(f"not a number: {token!r}")
    number, suffix, rest = match.groups()
    if rest and not rest.isalpha():
        raise ValueError(f"bad suffix on number: {token!r}")
    value = float(number) * _SUFFIXES[suffix] if suffix else float(number)
    if not math.isfinite(value):
        raise ValueError(f"number out of range: {token!r}")
    return value


def quantize_time(t):
    """Snap a time, or an array of times, to the femtosecond grid.

    Used for spot bookkeeping; the result has the shape of t. Zero is
    +0.0, also for a time that rounds to zero from below.
    """
    return np.rint(t / TIME_QUANTUM) * TIME_QUANTUM + 0.0


# ---------------------------------------------------------------------------
# Waveforms


class Waveform:
    """Common interface: a piecewise-linear value and its corner times."""

    def value(self, t):
        """The value at a time, or at each time of an array: same shape out."""
        raise NotImplementedError

    def transition_times(self, t_start: float, t_stop: float) -> np.ndarray:
        """Times in [t_start, t_stop] where the slope changes."""
        raise NotImplementedError


@dataclass(frozen=True)
class Dc(Waveform):
    level: float

    def value(self, t):
        return np.full(np.shape(t), self.level, dtype=np.float64)[()]

    def transition_times(self, t_start, t_stop):
        return np.empty(0)


@dataclass(frozen=True)
class Pulse(Waveform):
    """Periodic trapezoid: delay, linear rise, flat top, linear fall.

    Field order matches the text form PULSE(v1 v2 td tr tf tw tp).
    """

    v1: float
    v2: float
    t_delay: float
    t_rise: float
    t_fall: float
    t_width: float
    t_period: float

    def __post_init__(self):
        if self.t_rise <= 0 or self.t_fall <= 0:
            raise ValueError("pulse rise and fall times must be positive")
        if self.t_width < 0:
            raise ValueError("pulse width must be nonnegative")
        if self.t_period <= self.t_rise + self.t_width + self.t_fall:
            raise ValueError("pulse period must exceed rise + width + fall")
        if self.t_delay < 0:
            raise ValueError("pulse delay must be nonnegative")

    def value(self, t):
        t = np.asarray(t, dtype=np.float64)
        tau = np.fmod(t - self.t_delay, self.t_period)
        fall_start = self.t_rise + self.t_width
        fall_end = fall_start + self.t_fall
        rise = self.v1 + (self.v2 - self.v1) / self.t_rise * tau
        fall = self.v2 + (self.v1 - self.v2) / self.t_fall * (tau - fall_start)
        return np.select(
            [t < self.t_delay, tau < self.t_rise, tau < fall_start, tau < fall_end],
            [self.v1, rise, self.v2, fall],
            self.v1,
        )[()]

    def transition_times(self, t_start, t_stop):
        fall_start = self.t_rise + self.t_width
        offsets = np.array([0.0, self.t_rise, fall_start, fall_start + self.t_fall])
        # Periods ending a quantum or more before t_start snap no corner
        # into the span; skip them, keeping one more for rounding.
        lead = t_start - TIME_QUANTUM - self.t_delay - offsets[-1]
        k0 = max(0, math.floor(lead / self.t_period) - 1)
        # One period past the last base at or before t_stop, for rounding.
        k1 = math.floor((t_stop - self.t_delay) / self.t_period) + 2
        bases = self.t_delay + np.arange(k0, k1) * self.t_period
        corners = quantize_time((bases[bases <= t_stop, None] + offsets).ravel())
        return np.unique(corners[(t_start <= corners) & (corners <= t_stop)])


@dataclass(frozen=True)
class Pwl(Waveform):
    """Breakpoint list; constant extrapolation outside the given span.

    The times are snapped to the femtosecond grid when the Pwl is made,
    so each breakpoint is exactly the stepping point it makes.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("PWL needs at least one point")
        ts = np.array([p[0] for p in self.points], dtype=np.float64)
        if np.any(np.diff(ts) <= 0):
            raise ValueError("PWL times must be strictly increasing")
        snapped = quantize_time(ts)
        clash = np.flatnonzero(np.diff(snapped) <= 0)
        if clash.size:
            (a, _), (b, _) = self.points[clash[0] : clash[0] + 2]
            raise ValueError(f"PWL times {a!r} and {b!r} snap to the same femtosecond")
        points = tuple(zip(snapped.tolist(), (v for _, v in self.points)))
        object.__setattr__(self, "points", points)  # the dataclass is frozen

    def value(self, t):
        t = np.asarray(t, dtype=np.float64)
        ts, vs = np.array(self.points, dtype=np.float64).T
        # Segment i runs from point i to point i + 1 (the last point's
        # slope is unused); clipping keeps the discarded ramps finite.
        slopes = np.append(np.diff(vs) / np.diff(ts), 0.0)
        inside = np.clip(t, ts[0], ts[-1])
        i = np.searchsorted(ts, inside, side="right") - 1
        ramp = vs[i] + slopes[i] * (inside - ts[i])
        return np.where(t < ts[0], vs[0], np.where(t >= ts[-1], vs[-1], ramp))[()]

    def transition_times(self, t_start, t_stop):
        ts = np.array([p[0] for p in self.points], dtype=np.float64)
        return ts[(t_start <= ts) & (ts <= t_stop)]


# ---------------------------------------------------------------------------
# Parsing


@dataclass
class Netlist:
    """Parsed elements as columns, one list per field, in netlist order."""

    kinds: list[str]  # one of R C L I V
    names: list[str]
    pos: list[str]
    neg: list[str]
    values: list[float | None]  # None for sources
    waveforms: list[Waveform | None]  # None for R, C and L
    t_start: float | None = None
    t_stop: float | None = None


def _parse_source_spec(spec: str) -> Waveform:
    spec = spec.strip()
    upper = spec.upper()
    if upper.startswith("DC"):
        return Dc(parse_value(spec[2:].strip()))
    match = re.match(r"(PULSE|PWL)(?:\s*\((.*)\)\s*$)?", upper)
    if match is None:
        # A bare number means DC.
        return Dc(parse_value(spec))
    kind, body = match.groups()
    if body is None:
        raise ValueError(f"malformed {kind}(...)")
    args = [parse_value(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
    if kind == "PULSE":
        if len(args) != 7:
            raise ValueError(f"PULSE takes 7 values, got {len(args)}")
        return Pulse(*args)
    if len(args) < 2 or len(args) % 2:
        raise ValueError("PWL takes an even number of values")
    return Pwl(tuple(zip(args[0::2], args[1::2])))


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into elements plus the analysis directive."""
    fields: list = []  # six Netlist fields per element, in netlist order
    seen_names: set[str] = set()
    t_start = t_stop = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line or line[0] == "*":
            continue
        try:
            if line[0] == ".":
                tokens = line.split()
                card = tokens[0].upper()
                if card == ".END":
                    break
                if card != ".TRAN":
                    raise ValueError(f"unknown directive {tokens[0]!r}")
                if len(tokens) != 3:
                    raise ValueError(".TRAN takes start and stop times")
                t_start = parse_value(tokens[1])
                t_stop = parse_value(tokens[2])
                if t_stop <= t_start:
                    raise ValueError(".TRAN stop must exceed start")
                continue
            tokens = line.split(None, 3)
            if len(tokens) < 4:
                raise ValueError("element line needs name, two nodes and a value")
            name, pos, neg, rest = tokens
            # Names head the CSV columns, where ',' separates fields.
            if "," in line and "," in name + pos + neg:
                bad = next(tok for tok in (name, pos, neg) if "," in tok)
                raise ValueError(f"name {bad!r} contains ','")
            key = name.upper()
            kind = key[0]
            if key in seen_names:
                raise ValueError(f"duplicate element name {name!r}")
            seen_names.add(key)
            p, q = pos.upper(), neg.upper()
            if p == q:
                raise ValueError(f"element {name!r} shorts node {pos!r} to itself")
            if kind in "RCL":
                value = parse_value(rest.split(None, 1)[0])
                if value <= 0:
                    raise ValueError(f"{name!r} must have a positive value")
                fields.extend((kind, key, p, q, value, None))
            elif kind in "IV":
                fields.extend((kind, key, p, q, None, _parse_source_spec(rest)))
            else:
                raise ValueError(f"unknown element type {name!r}")
        except ValueError as exc:
            raise NetlistError(str(exc), line_no) from exc
    if not fields:
        raise NetlistError("netlist has no elements")
    return Netlist(*(fields[k::6] for k in range(6)), t_start=t_start, t_stop=t_stop)


# ---------------------------------------------------------------------------
# MNA assembly


@dataclass
class CircuitSystem:
    """Descriptor system C xdot = -G x + B u with naming metadata."""

    c: numkit.SparseMatrix
    g: numkit.SparseMatrix
    b: numkit.SparseMatrix
    sources: list[Waveform]
    names: list[str]  # unknown names, v(node) then i(element)
    source_names: list[str]
    t_start: float | None = None
    t_stop: float | None = None

    @property
    def n(self) -> int:
        return self.c.nrows

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def eval_sources(self, t) -> np.ndarray:
        """Source values u(t), one row per column of B.

        t is a time, giving shape (n_src,), or an array of times, giving
        (n_src,) + t.shape: a run's whole drive table in one call.
        """
        return np.array([w.value(t) for w in self.sources], dtype=np.float64)

    def subsystem(self, members: list[int]) -> "CircuitSystem":
        """The same circuit driven by the member sources alone.

        C and G are shared; B keeps the members' columns in order. By
        linearity the responses of subsystems that partition the
        sources sum to the response of the whole circuit.
        """
        return replace(
            self,
            b=numkit.from_scipy(self.b.scipy[:, members]),
            sources=[self.sources[i] for i in members],
            source_names=[self.source_names[i] for i in members],
        )


def _assemble(shape, *stamps) -> numkit.SparseMatrix:
    """One matrix from stamps, its triplets in netlist order.

    A stamp is (elements, rows, cols, vals): element indices and, for
    each triplet field, one entry per slot, an array over the elements
    or a constant. An element's slots follow one another and elements
    keep netlist order, so duplicates are summed in the order an
    element-at-a-time loop gives them. Entries at the ground index,
    which lies outside the matrix, are dropped.
    """

    def slots(elements, field):
        return np.column_stack([np.broadcast_to(x, elements.shape) for x in field]).ravel()

    elem = np.concatenate([np.repeat(s[0], len(s[1])) for s in stamps])
    rows, cols, vals = (
        np.concatenate([slots(s[0], s[f]) for s in stamps]) for f in (1, 2, 3)
    )
    order = np.argsort(elem, kind="stable")
    keep = order[(rows[order] < shape[0]) & (cols[order] < shape[1])]
    return numkit.from_scipy(
        sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=shape)
    )


def _pair(i, j, v):
    """Two-terminal slots: v at (i, i) and (j, j), -v at (i, j) and (j, i)."""
    return [i, j, i, j], [i, j, j, i], [v, v, -v, -v]


def stamp_mna(netlist: Netlist) -> CircuitSystem:
    """Assemble C, G, B from parsed elements.

    Unknown ordering: non-ground nodes in first-appearance order, then
    one branch current per voltage source or inductor in appearance
    order. R (1/R into G) and C share one two-terminal stamp. L and V
    share one branch stamp in G, the branch current's +-1 KCL column
    and its voltage-law row; L adds -L on C's diagonal and V its column
    of B. Nodes with no path to ground through R, L or V get a warning
    (their DC system is singular) but assembly still succeeds.
    """
    kind = np.array(netlist.kinds, dtype="U1")
    value = np.array(netlist.values, dtype=np.float64)  # NaN for sources
    is_ = {k: kind == k for k in "RCLIV"}
    res, cap, ind, isrc, vsrc = (np.flatnonzero(is_[k]) for k in "RCLIV")
    branches = np.flatnonzero(is_["L"] | is_["V"])
    sources = np.flatnonzero(is_["I"] | is_["V"])
    first_seen = dict.fromkeys(chain.from_iterable(zip(netlist.pos, netlist.neg)))
    first_seen.pop("0", None)
    nodes = list(first_seen)
    n = len(nodes) + branches.size
    index = dict(zip(nodes, range(len(nodes))))
    index["0"] = n  # ground: outside every matrix, vertex n of the DC graph
    p, q = (
        np.fromiter(map(index.__getitem__, ends), np.int64, kind.size)
        for ends in (netlist.pos, netlist.neg)
    )
    unknown, col = np.zeros(kind.size, np.int64), np.zeros(kind.size, np.int64)
    unknown[branches] = np.arange(len(nodes), n)  # branch current unknowns
    col[sources] = np.arange(sources.size)  # columns of B

    pb, qb, kb = p[branches], q[branches], unknown[branches]
    g_mat = _assemble(
        (n, n),
        (res, *_pair(p[res], q[res], 1.0 / value[res])),
        (branches, [pb, kb, qb, kb], [kb, pb, kb, qb], [1.0, 1.0, -1.0, -1.0]),
    )
    c_mat = _assemble(
        (n, n),
        (cap, *_pair(p[cap], q[cap], value[cap])),
        # -L in C keeps the node block of G symmetric with the branch row.
        (ind, [unknown[ind]], [unknown[ind]], [-value[ind]]),
    )
    # Current flows from pos to neg through an I source, so it leaves
    # the circuit at pos and is injected at neg.
    b_mat = _assemble(
        (n, max(1, sources.size)),
        (isrc, [q[isrc], p[isrc]], [col[isrc], col[isrc]], [1.0, -1.0]),
        (vsrc, [unknown[vsrc]], [col[vsrc]], [1.0]),
    )

    # The graph of elements that conduct at DC.
    dc = np.flatnonzero(is_["R"] | is_["L"] | is_["V"])
    graph = sp.coo_matrix((np.ones(dc.size), (p[dc], q[dc])), shape=(n + 1, n + 1))
    _, label = connected_components(graph, directed=False)
    floating = sorted(nodes[k] for k in np.flatnonzero(label[: len(nodes)] != label[n]))
    if floating:
        # Point the warning at the first caller outside this package.
        frame, level = sys._getframe(1), 2
        while frame and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"nodes with no DC path to ground: {', '.join(floating)}",
            stacklevel=level,
        )

    names = netlist.names
    return CircuitSystem(
        c=c_mat,
        g=g_mat,
        b=b_mat,
        sources=[netlist.waveforms[k] for k in sources],
        names=[f"v({name.lower()})" for name in nodes]
        + [f"i({names[k].lower()})" for k in branches],
        source_names=[names[k].lower() for k in sources],
        t_start=netlist.t_start,
        t_stop=netlist.t_stop,
    )


def build_system(text: str) -> CircuitSystem:
    """Parse netlist text and assemble its descriptor system."""
    return stamp_mna(parse_netlist(text))


def dc_analysis(
    system: CircuitSystem,
    g_factors: numkit.LuFactors | None = None,
    t: float | None = None,
) -> np.ndarray:
    """Operating point at time t: solve G x = B u(t).

    t defaults to the netlist's t_start (or 0); solvers pass the start
    of their resolved span. Capacitors are open and inductors short at
    DC, which is exactly what the assembled G expresses. Pass pre-built
    factors of G to reuse them.
    """
    if t is None:
        t = system.t_start if system.t_start is not None else 0.0
    rhs = system.b @ system.eval_sources(t)
    if g_factors is None:
        try:
            g_factors = numkit.lu_factorize(system.g)
        except NumericalError as exc:
            raise NoDcOperatingPoint(
                f"conductance system is singular: {exc}"
            ) from exc
    return g_factors.solve(rhs)
