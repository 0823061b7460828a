"""Netlist parsing and modified-nodal-analysis assembly.

The accepted text format is a small SPICE-like dialect, one element per
line, '*' or ';' comment lines and trailing '; ...' comments,
case-insensitive, with engineering suffixes on numbers
(f p n u m k meg g t). Supported cards::

    R<name> n+ n- <value>
    C<name> n+ n- <value>
    L<name> n+ n- <value>
    I<name> n+ n- DC <value> | PULSE(v1 v2 td tr tf tw tp) | PWL(t1 v1 ...)
    V<name> n+ n- DC <value> | PULSE(...) | PWL(...)
    .TRAN <tstart> <tstop>
    .END

Node "0" is ground and is eliminated. Unknowns are the non-ground node
voltages in first-appearance order followed by the branch currents of
voltage sources and inductors in appearance order. Assembly produces the
descriptor system

    C xdot(t) = -G x(t) + B u(t)

where u(t) stacks the independent source values. C is kept exactly as
stamped; it is singular whenever a node carries no capacitance or a
voltage source is present, and downstream solvers are expected to cope
(or to fail loudly) rather than have the matrix nudged here.
"""

from __future__ import annotations

import bisect
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import numkit
from .errors import NetlistError, NoDcOperatingPoint, NumericalError

_PACKAGE_DIR = os.path.dirname(__file__)

# Spot times are snapped to this grid so set operations on them are exact.
TIME_QUANTUM = 1e-15

_SUFFIXES = [
    ("MEG", 1e6),
    ("F", 1e-15),
    ("P", 1e-12),
    ("N", 1e-9),
    ("U", 1e-6),
    ("M", 1e-3),
    ("K", 1e3),
    ("G", 1e9),
    ("T", 1e12),
]


def parse_value(token: str) -> float:
    """Parse a number with an optional engineering suffix.

    Trailing unit letters after the suffix are ignored ("10ps", "2pF").
    """
    text = token.strip().upper()
    match = re.match(r"^[+-]?(\d+\.?\d*|\.\d+)(E[+-]?\d+)?", text)
    if not match or match.start() != 0 or match.group(0) == "":
        raise ValueError(f"not a number: {token!r}")
    value = float(match.group(0))
    rest = text[match.end():]
    if rest:
        for suffix, factor in _SUFFIXES:
            if rest.startswith(suffix):
                value *= factor
                rest = rest[len(suffix):]
                break
        if rest and not rest.isalpha():
            raise ValueError(f"bad suffix on number: {token!r}")
    return value


def quantize_time(t: float) -> float:
    """Snap a time to the femtosecond grid used for spot bookkeeping."""
    return round(t / TIME_QUANTUM) * TIME_QUANTUM


# ---------------------------------------------------------------------------
# Waveforms


class Waveform:
    """Common interface: a piecewise-linear value and its corner times."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def transition_times(self, t_start: float, t_stop: float) -> np.ndarray:
        """Times in [t_start, t_stop] where the slope changes."""
        raise NotImplementedError


@dataclass(frozen=True)
class Dc(Waveform):
    level: float

    def value(self, t):
        return self.level

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
        if t < self.t_delay:
            return self.v1
        tau = math.fmod(t - self.t_delay, self.t_period)
        fall_start = self.t_rise + self.t_width
        if tau < self.t_rise:
            return self.v1 + (self.v2 - self.v1) / self.t_rise * tau
        if tau < fall_start:
            return self.v2
        if tau < fall_start + self.t_fall:
            return self.v2 + (self.v1 - self.v2) / self.t_fall * (tau - fall_start)
        return self.v1

    def transition_times(self, t_start, t_stop):
        fall_start = self.t_rise + self.t_width
        offsets = (0.0, self.t_rise, fall_start, fall_start + self.t_fall)
        times = []
        k = 0
        while True:
            base = self.t_delay + k * self.t_period
            if base > t_stop:
                break
            for off in offsets:
                c = quantize_time(base + off)
                if t_start <= c <= t_stop:
                    times.append(c)
            k += 1
        return np.unique(np.asarray(times)) if times else np.empty(0)


@dataclass(frozen=True)
class Pwl(Waveform):
    """Breakpoint list; constant extrapolation outside the given span."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("PWL needs at least one point")
        times = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL times must be strictly increasing")

    def value(self, t):
        pts = self.points
        if t < pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        times = [p[0] for p in pts]
        i = bisect.bisect_right(times, t) - 1
        t0, v0 = pts[i]
        t1, v1 = pts[i + 1]
        return v0 + (v1 - v0) / (t1 - t0) * (t - t0)

    def transition_times(self, t_start, t_stop):
        times = [
            quantize_time(p[0])
            for p in self.points
            if t_start <= p[0] <= t_stop
        ]
        return np.unique(np.asarray(times)) if times else np.empty(0)


# ---------------------------------------------------------------------------
# Parsing


@dataclass(frozen=True)
class Element:
    kind: str  # one of R C L I V
    name: str
    pos: str
    neg: str
    value: float | None = None
    waveform: Waveform | None = None


@dataclass
class Netlist:
    elements: list[Element]
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
    elements: list[Element] = []
    seen_names: set[str] = set()
    t_start = t_stop = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line or line.startswith("*"):
            continue
        try:
            if line.startswith("."):
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
            kind = name[0].upper()
            key = name.upper()
            if key in seen_names:
                raise ValueError(f"duplicate element name {name!r}")
            seen_names.add(key)
            if pos.upper() == neg.upper():
                raise ValueError(f"element {name!r} shorts node {pos!r} to itself")
            pos, neg = pos.upper(), neg.upper()
            if kind in "RCL":
                value = parse_value(rest.split()[0])
                if value <= 0:
                    raise ValueError(f"{name!r} must have a positive value")
                elements.append(Element(kind, key, pos, neg, value=value))
            elif kind in "IV":
                wave = _parse_source_spec(rest)
                elements.append(Element(kind, key, pos, neg, waveform=wave))
            else:
                raise ValueError(f"unknown element type {name!r}")
        except ValueError as exc:
            raise NetlistError(str(exc), line_no) from exc
    if not elements:
        raise NetlistError("netlist has no elements")
    return Netlist(elements=elements, t_start=t_start, t_stop=t_stop)


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

    def eval_sources(self, t: float) -> np.ndarray:
        """Source values u(t), one per column of B."""
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
    node_index: dict[str, int] = {}
    for e in netlist.elements:
        for name in (e.pos, e.neg):
            if name != "0":
                node_index.setdefault(name, len(node_index))
    n_nodes = len(node_index)
    branches = [e.name for e in netlist.elements if e.kind in "VL"]
    branch_index = {name: n_nodes + i for i, name in enumerate(branches)}
    n = n_nodes + len(branches)
    sources = [e for e in netlist.elements if e.kind in "IV"]
    src_col = {e.name: k for k, e in enumerate(sources)}

    c_trip: list[tuple[int, int, float]] = []
    g_trip: list[tuple[int, int, float]] = []
    b_trip: list[tuple[int, int, float]] = []

    def stamp_pair(trip, i, j, val):
        if i is not None:
            trip.append((i, i, val))
        if j is not None:
            trip.append((j, j, val))
        if i is not None and j is not None:
            trip.append((i, j, -val))
            trip.append((j, i, -val))

    for e in netlist.elements:
        p, q = node_index.get(e.pos), node_index.get(e.neg)
        if e.kind == "R":
            stamp_pair(g_trip, p, q, 1.0 / e.value)
        elif e.kind == "C":
            stamp_pair(c_trip, p, q, e.value)
        elif e.kind == "I":
            col = src_col[e.name]
            # Current flows from pos to neg through the source, so it
            # leaves the circuit at pos and is injected at neg.
            if q is not None:
                b_trip.append((q, col, 1.0))
            if p is not None:
                b_trip.append((p, col, -1.0))
        else:
            k = branch_index[e.name]
            for i, sign in ((p, 1.0), (q, -1.0)):
                if i is not None:
                    g_trip.append((i, k, sign))
                    g_trip.append((k, i, sign))
            if e.kind == "L":
                # -L in C keeps the node block of G symmetric with the
                # branch row.
                c_trip.append((k, k, -e.value))
            else:
                b_trip.append((k, src_col[e.name], 1.0))

    # Ground is vertex n_nodes of the graph of elements that conduct at DC.
    ground = n_nodes
    ends = np.array(
        [
            (node_index.get(e.pos, ground), node_index.get(e.neg, ground))
            for e in netlist.elements
            if e.kind in "RLV"
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    graph = sp.coo_matrix(
        (np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(ground + 1, ground + 1)
    )
    _, label = connected_components(graph, directed=False)
    floating = sorted(
        name for name, i in node_index.items() if label[i] != label[ground]
    )
    if floating:
        # Point the warning at the first caller outside this package.
        frame, level = sys._getframe(1), 2
        while frame and os.path.dirname(frame.f_code.co_filename) == _PACKAGE_DIR:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"nodes with no DC path to ground: {', '.join(floating)}",
            stacklevel=level,
        )

    return CircuitSystem(
        c=numkit.csc_from_triplets(c_trip, n, n),
        g=numkit.csc_from_triplets(g_trip, n, n),
        b=numkit.csc_from_triplets(b_trip, n, max(1, len(sources))),
        sources=[e.waveform for e in sources],
        names=[f"v({name.lower()})" for name in node_index]
        + [f"i({name.lower()})" for name in branches],
        source_names=[e.name.lower() for e in sources],
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
