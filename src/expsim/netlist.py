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
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import NetlistError, NoDcOperatingPoint, NumericalError

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
    """Common interface: piecewise-linear value with a right-hand slope."""

    def value_and_slope(self, t: float) -> tuple[float, float]:
        raise NotImplementedError

    def value(self, t: float) -> float:
        return self.value_and_slope(t)[0]

    def transition_times(self, t_start: float, t_stop: float) -> np.ndarray:
        """Times in [t_start, t_stop] where the slope changes."""
        raise NotImplementedError


@dataclass(frozen=True)
class Dc(Waveform):
    level: float

    def value_and_slope(self, t):
        return self.level, 0.0

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

    def value_and_slope(self, t):
        if t < self.t_delay:
            return self.v1, 0.0
        tau = math.fmod(t - self.t_delay, self.t_period)
        rise_end = self.t_rise
        fall_start = self.t_rise + self.t_width
        fall_end = fall_start + self.t_fall
        if tau < rise_end:
            slope = (self.v2 - self.v1) / self.t_rise
            return self.v1 + slope * tau, slope
        if tau < fall_start:
            return self.v2, 0.0
        if tau < fall_end:
            slope = (self.v1 - self.v2) / self.t_fall
            return self.v2 + slope * (tau - fall_start), slope
        return self.v1, 0.0

    def corner_offsets(self) -> tuple[float, float, float, float]:
        return (
            0.0,
            self.t_rise,
            self.t_rise + self.t_width,
            self.t_rise + self.t_width + self.t_fall,
        )

    def transition_times(self, t_start, t_stop):
        times = []
        k = 0
        while True:
            base = self.t_delay + k * self.t_period
            if base > t_stop:
                break
            for off in self.corner_offsets():
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

    def value_and_slope(self, t):
        pts = self.points
        if t < pts[0][0]:
            return pts[0][1], 0.0
        if t >= pts[-1][0]:
            return pts[-1][1], 0.0
        times = [p[0] for p in pts]
        i = bisect.bisect_right(times, t) - 1
        t0, v0 = pts[i]
        t1, v1 = pts[i + 1]
        slope = (v1 - v0) / (t1 - t0)
        return v0 + slope * (t - t0), slope

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


def _parse_source_spec(spec: str, line_no: int) -> Waveform:
    spec = spec.strip()
    upper = spec.upper()
    try:
        if upper.startswith("DC"):
            return Dc(parse_value(spec[2:].strip()))
        if upper.startswith("PULSE"):
            m = re.match(r"PULSE\s*\((.*)\)\s*$", upper)
            if not m:
                raise ValueError("malformed PULSE(...)")
            args = [parse_value(tok) for tok in re.split(r"[\s,]+", m.group(1).strip()) if tok]
            if len(args) != 7:
                raise ValueError(f"PULSE takes 7 values, got {len(args)}")
            v1, v2, td, tr, tf, tw, tp = args
            return Pulse(v1, v2, td, tr, tf, tw, tp)
        if upper.startswith("PWL"):
            m = re.match(r"PWL\s*\((.*)\)\s*$", upper)
            if not m:
                raise ValueError("malformed PWL(...)")
            args = [parse_value(tok) for tok in re.split(r"[\s,]+", m.group(1).strip()) if tok]
            if len(args) < 2 or len(args) % 2:
                raise ValueError("PWL takes an even number of values")
            pts = tuple(zip(args[0::2], args[1::2]))
            return Pwl(pts)
        # A bare number means DC.
        return Dc(parse_value(spec))
    except ValueError as exc:
        raise NetlistError(str(exc), line_no) from exc


def parse_netlist(text: str) -> Netlist:
    """Parse netlist text into elements plus the analysis directive."""
    elements: list[Element] = []
    seen_names: set[str] = set()
    t_start = t_stop = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line or line.startswith("*"):
            continue
        if line.startswith("."):
            tokens = line.split()
            card = tokens[0].upper()
            if card == ".END":
                break
            if card == ".TRAN":
                if len(tokens) != 3:
                    raise NetlistError(".TRAN takes start and stop times", line_no)
                try:
                    t_start = parse_value(tokens[1])
                    t_stop = parse_value(tokens[2])
                except ValueError as exc:
                    raise NetlistError(str(exc), line_no) from exc
                if t_stop <= t_start:
                    raise NetlistError(".TRAN stop must exceed start", line_no)
                continue
            raise NetlistError(f"unknown directive {tokens[0]!r}", line_no)
        tokens = line.split(None, 3)
        if len(tokens) < 4:
            raise NetlistError("element line needs name, two nodes and a value", line_no)
        name, pos, neg, rest = tokens[0], tokens[1], tokens[2], tokens[3]
        kind = name[0].upper()
        key = name.upper()
        if key in seen_names:
            raise NetlistError(f"duplicate element name {name!r}", line_no)
        seen_names.add(key)
        if pos.upper() == neg.upper():
            raise NetlistError(f"element {name!r} shorts node {pos!r} to itself", line_no)
        pos, neg = pos.upper(), neg.upper()
        if kind in "RCL":
            try:
                value = parse_value(rest.split()[0])
            except ValueError as exc:
                raise NetlistError(str(exc), line_no) from exc
            if value <= 0:
                raise NetlistError(f"{name!r} must have a positive value", line_no)
            elements.append(Element(kind, key, pos, neg, value=value))
        elif kind in "IV":
            wave = _parse_source_spec(rest, line_no)
            elements.append(Element(kind, key, pos, neg, waveform=wave))
        else:
            raise NetlistError(f"unknown element type {name!r}", line_no)
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
    node_index: dict[str, int] = field(default_factory=dict)
    t_start: float | None = None
    t_stop: float | None = None

    @property
    def n(self) -> int:
        return self.c.nrows

    @property
    def num_sources(self) -> int:
        return len(self.sources)

    def eval_sources(self, t: float, mask: np.ndarray | None = None):
        """Source values and right-hand slopes at time t.

        mask, when given, zeroes the contribution of deselected sources;
        superposition subtasks use it to restrict the drive to one group.
        """
        u = np.empty(self.num_sources)
        du = np.empty(self.num_sources)
        for i, w in enumerate(self.sources):
            u[i], du[i] = w.value_and_slope(t)
        if mask is not None:
            u = np.where(mask, u, 0.0)
            du = np.where(mask, du, 0.0)
        return u, du

    def structurally_singular_c(self) -> bool:
        m = self.c.scipy
        row_counts = np.diff(m.tocsr().indptr)
        col_counts = np.diff(m.indptr)
        return bool((row_counts == 0).any() or (col_counts == 0).any())


def stamp_mna(netlist: Netlist) -> CircuitSystem:
    """Assemble C, G, B from parsed elements.

    Unknown ordering: non-ground nodes in first-appearance order, then
    one branch current per voltage source or inductor in appearance
    order. Nodes with no conductive path to ground get a warning (their
    DC system is singular) but assembly still succeeds.
    """
    node_index: dict[str, int] = {}

    def node(name: str) -> int | None:
        if name == "0":
            return None
        if name not in node_index:
            node_index[name] = len(node_index)
        return node_index[name]

    # First pass fixes the node numbering and counts branches.
    branches = [e for e in netlist.elements if e.kind in "VL"]
    for e in netlist.elements:
        node(e.pos)
        node(e.neg)
    n_nodes = len(node_index)
    n = n_nodes + len(branches)
    branch_index = {e.name: n_nodes + i for i, e in enumerate(branches)}

    sources = [e for e in netlist.elements if e.kind in "IV"]
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

    src_col = {e.name: k for k, e in enumerate(sources)}
    for e in netlist.elements:
        p, q = node(e.pos), node(e.neg)
        if e.kind == "R":
            stamp_pair(g_trip, p, q, 1.0 / e.value)
        elif e.kind == "C":
            stamp_pair(c_trip, p, q, e.value)
        elif e.kind == "L":
            k = branch_index[e.name]
            # KCL columns for the branch current, branch row for the
            # voltage law; storing -L in C keeps the node block of G
            # symmetric with the branch row.
            if p is not None:
                g_trip.append((p, k, 1.0))
                g_trip.append((k, p, 1.0))
            if q is not None:
                g_trip.append((q, k, -1.0))
                g_trip.append((k, q, -1.0))
            c_trip.append((k, k, -e.value))
        elif e.kind == "I":
            col = src_col[e.name]
            # Current flows from pos to neg through the source, so it
            # leaves the circuit at pos and is injected at neg.
            if q is not None:
                b_trip.append((q, col, 1.0))
            if p is not None:
                b_trip.append((p, col, -1.0))
        elif e.kind == "V":
            k = branch_index[e.name]
            col = src_col[e.name]
            if p is not None:
                g_trip.append((p, k, 1.0))
                g_trip.append((k, p, 1.0))
            if q is not None:
                g_trip.append((q, k, -1.0))
                g_trip.append((k, q, -1.0))
            b_trip.append((k, col, 1.0))

    names = [None] * n
    for nm, i in node_index.items():
        names[i] = f"v({nm.lower()})"
    for e in branches:
        names[branch_index[e.name]] = f"i({e.name.lower()})"

    _warn_floating_nodes(netlist, node_index)

    return CircuitSystem(
        c=numkit.csc_from_triplets(c_trip, n, n),
        g=numkit.csc_from_triplets(g_trip, n, n),
        b=numkit.csc_from_triplets(b_trip, n, max(1, len(sources))),
        sources=[e.waveform for e in sources],
        names=names,
        source_names=[e.name.lower() for e in sources],
        node_index=dict(node_index),
        t_start=netlist.t_start,
        t_stop=netlist.t_stop,
    )


def _warn_floating_nodes(netlist: Netlist, node_index: dict[str, int]):
    # Union-find over elements that conduct at DC (R, L, V).
    parent: dict[str, str] = {name: name for name in node_index}
    parent["0"] = "0"

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for e in netlist.elements:
        if e.kind in "RLV":
            union(e.pos, e.neg)
    ground_root = find("0")
    floating = sorted(
        name for name in node_index if find(name) != ground_root
    )
    if floating:
        warnings.warn(
            f"nodes with no DC path to ground: {', '.join(floating)}",
            stacklevel=3,
        )


def build_system(text: str) -> CircuitSystem:
    """Parse netlist text and assemble its descriptor system."""
    return stamp_mna(parse_netlist(text))


def dc_analysis(
    system: CircuitSystem,
    g_factors: numkit.LuFactors | None = None,
    mask: np.ndarray | None = None,
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
    u0, _ = system.eval_sources(t, mask)
    rhs = system.b @ u0
    if g_factors is None:
        try:
            g_factors = numkit.lu_factorize(system.g)
        except NumericalError as exc:
            raise NoDcOperatingPoint(
                f"conductance system is singular: {exc}"
            ) from exc
    return g_factors.solve(rhs)
