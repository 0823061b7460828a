"""Netlist-to-matrix output pinned byte for byte.

The digests below were recorded from the object-at-a-time parser and
stamper that the column-wise assembly replaced. Each covers the
`data`, `indices` and `indptr` arrays of one stored matrix, so a change
in the order duplicates are summed in, in the index dtype or in one
floating-point bit shows. The error table holds that implementation's
exact messages and line numbers for malformed input. The benchmark's
own grids are pinned too, with their sources' repr, from the parser
that preceded the float-first value parse and one-pass node numbering.
"""

import hashlib
import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

import expsim as es
from expsim import netlist
from expsim.errors import NetlistError


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:24]


def text_digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()[:24]


def rlc_netlist() -> str:
    """RLC ladder whose L and V branch stamps sit between R stamps.

    Every section also ties its node to a shared hub, so the hub's
    column of G sums more than 16 stamps.
    """
    lines = ["* rlc ladder with a hub"]
    for k in range(24):
        a, m, b = f"n{k}", f"m{k}", f"n{k + 1}"
        lines.append(f"R{k} {a} {m} {1 + k % 5}.{k}7")
        lines.append(f"L{k} {m} {b} {k + 1}.3n")
        lines.append(f"RH{k} {b} hub 3.{k}1k")
        lines.append(f"C{k} {b} 0 {k % 7 + 1}.{k}5p")
        if k % 3 == 0:
            lines.append(f"V{k} {b} hub PULSE(0 1 {k}p 5p 5p 10p 100p)")
        if k % 4 == 1:
            lines.append(f"I{k} 0 {m} PWL(0 0, {k + 1}p 1m, 50p 2m)")
    lines += ["RG hub 0 47", "VIN n0 0 DC 1", ".TRAN 0 200p", ".END", ""]
    return "\n".join(lines)


SUFFIX_NETLIST = """* engineering suffixes, mixed-case nodes, comments
* a second comment line
r1 In Mid 1.5k ; input resistor
R2 mid OUT 2.2KOhm
C1 mid 0 4.7pF ; trailing comment
c2 Out 0 .33p
L1 out Load 10nH
rLoad load 0 1MEG
Cfloat Float1 float2 1f   ; a pair with no DC path to ground
c3 FLOAT2 0 2e-15
rf float1 Float2 1t
V1 in 0 PULSE(0 1.2 10ps 5ps 5ps 20ps 100ps) ; clock
I1 0 Mid PWL(0 0, 10p 2.5mA, 40p 1u)
Ibias 0 out DC 3.3uA
.tran 0 0.2n
.end
"""

# name -> (C, G, B, names, source_names) digests.
PINS = {
    "readme-mesh": (
        "3500bff5a1c3ba465f97b987",
        "3c5b5d3ee865730bd732baf9",
        "2233a69b070cf8ba10cea247",
        "f69a646b084ce88534114ced",
        "67903b8c9aa378d294a9cf8c",
    ),
    "rlc-hub": (
        "824890157d20cd85c4663eef",
        "bab7a6262bce8d9bfd0a63ce",
        "509553d54acda84a5a466613",
        "0c0bcd486f501350e77da6c1",
        "1098d81a7e63f172f23e30fe",
    ),
    "suffixes": (
        "d0ca24a28d05563ba5e76628",
        "658fc8455c7cde7ba1e94fa7",
        "d40169de733bc4085690ab12",
        "ca6b3fe0f6a7a65aca3797f7",
        "d28217643c617668b0acb97f",
    ),
}


@pytest.fixture(scope="module")
def pinned_texts(stiff_mesh):
    return {
        "readme-mesh": stiff_mesh[0].text,
        "rlc-hub": rlc_netlist(),
        "suffixes": SUFFIX_NETLIST,
    }


def system_digests(system):
    mats = [(m.scipy.data, m.scipy.indices, m.scipy.indptr)
            for m in (system.c, system.g, system.b)]
    return tuple(digest(a) for a in mats) + (
        text_digest(system.names), text_digest(system.source_names)
    )


@pytest.mark.parametrize("name", sorted(PINS))
def test_matrices_match_pinned_bytes(pinned_texts, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = es.build_system(pinned_texts[name])
    assert system_digests(system) == PINS[name]


MESHES_PY = Path(__file__).resolve().parent.parent / "perfbench" / "meshes.py"

# perfbench/meshes.grid_mesh arguments -> (C, G, B, names, source_names,
# repr of sources) digests.
BENCH_PINS = {
    (100, 12, 3, 1): (
        "5af412c8787b7de2fee736a6",
        "a7abf65b395075e1cff6f69d",
        "44a94fc24a61b74e7f640073",
        "7c13f4812cba25bb1545338a",
        "0f2064fa6675799a2efac869",
        "ee0b83220fe9abb350af5c39",
    ),
    (100, 32, 8, 1): (
        "5af412c8787b7de2fee736a6",
        "a7abf65b395075e1cff6f69d",
        "24499a33e51f4f28eb06a06d",
        "7c13f4812cba25bb1545338a",
        "6e4a314d5588d766665c3c06",
        "d285716447c60c7b21f26b5e",
    ),
}


@pytest.fixture(scope="module")
def meshes():
    """perfbench/meshes.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_meshes", MESHES_PY)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class
    # body executes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("args", sorted(BENCH_PINS))
def test_benchmark_matrices_match_pinned_bytes(meshes, args):
    system = es.build_system(meshes.grid_mesh(*args).text)
    got = system_digests(system) + (text_digest([repr(system.sources)]),)
    assert got == BENCH_PINS[args]


def test_suffix_netlist_floating_warning():
    with pytest.warns(UserWarning) as record:
        es.build_system(SUFFIX_NETLIST)
    assert [str(w.message) for w in record] == [
        "nodes with no DC path to ground: FLOAT1, FLOAT2"
    ]


def good_lines(n):
    return "".join(f"R{i} n{i} 0 {i + 1}k\n" for i in range(n))


# id -> (netlist text, line number, message with its "line N: " prefix).
ERRORS = {
    "inf": ("R1 1 0 inf\n", 1, "line 1: not a number: 'inf'"),
    "nan": ("R1 1 0 nan\n", 1, "line 1: not a number: 'nan'"),
    "underscore": ("R1 1 0 1_0\n", 1, "line 1: bad suffix on number: '1_0'"),
    "dc-inf": ("I1 0 1 DC inf\n", 1, "line 1: not a number: 'inf'"),
    "1M5": ("R1 1 0 10\nC1 1 0 1M5\n", 2, "line 2: bad suffix on number: '1M5'"),
    "dangling-exponent": (
        "R1 1 0 1e\nR2 1 0 1e-\n", 2,
        "line 2: bad suffix on number: '1e-'",
    ),
    "duplicate-after-1000": (
        good_lines(1000) + "r5 x 0 1\n", 1001,
        "line 1001: duplicate element name 'r5'",
    ),
    "short": ("R1 a A 10\n", 1, "line 1: element 'R1' shorts node 'a' to itself"),
    "zero-value": (
        "R1 1 0 10\nC1 1 0 0\n", 2,
        "line 2: 'C1' must have a positive value",
    ),
    "negative-value": ("L1 1 0 -1n\n", 1, "line 1: 'L1' must have a positive value"),
    "unknown-card": ("X1 1 0 10\n", 1, "line 1: unknown element type 'X1'"),
    "unknown-directive": (
        "R1 1 0 1\n.NODESET 1\n", 2,
        "line 2: unknown directive '.NODESET'",
    ),
    "missing-value": (
        "R1 1 0\n", 1,
        'line 1: element line needs name, two nodes and a value',
    ),
    "tran-arity": (
        "R1 1 0 1\n.TRAN 1n\n", 2,
        'line 2: .TRAN takes start and stop times',
    ),
    "tran-order": (
        "R1 1 0 1\n.TRAN 1n 1n\n", 2,
        'line 2: .TRAN stop must exceed start',
    ),
    "tran-value": ("R1 1 0 1\n.TRAN 0 x\n", 2, "line 2: not a number: 'x'"),
    "pulse-token": ("I1 0 1 PULSE(0 1 0 1 1 1 x)\n", 1, "line 1: not a number: 'X'"),
    "pulse-rise": (
        "I1 0 1 PULSE(0 1 0 0 1 1 5)\n", 1,
        'line 1: pulse rise and fall times must be positive',
    ),
    "pwl-order": (
        "V1 1 0 PWL(1 0 1 1)\n", 1,
        'line 1: PWL times must be strictly increasing',
    ),
    "unknown-spec": ("V1 1 0 SIN(0 1 1g)\n", 1, "line 1: not a number: 'SIN(0 1 1g)'"),
    "empty": ("* only a comment\n; and another\n", None, 'netlist has no elements'),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_error_messages_and_lines(case):
    text, line_no, message = ERRORS[case]
    with pytest.raises(NetlistError) as info:
        netlist.parse_netlist(text + ".END\n")
    assert (str(info.value), info.value.line_no) == (message, line_no)
