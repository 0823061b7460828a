"""Exponential-run waveforms pinned byte for byte.

Each digest is the sha256 of `times.tobytes()` and of
`states.tobytes()` of one run, recorded before the input terms were
formed per step instead of as two (T, n) tables. "mixed" and "mesh",
whose sources share PULSE timings, were re-pinned when the input terms
went from one column per source to one per distinct waveform; the other
circuits merge no two sources and kept their bytes. A run in one group is
`stepper.solve_transient` itself; the "default" grouping, one group per
distinct spot-time set, is `decomp.run_superposed` with `max_groups` at
the source count, whose merged states are zeros plus each group's states
in group index order.

Beside the bytes, each case pins the substitution pairs the run spent
on each factor: G, C and the rational shift. A convergence probe pays
a C solve only when its solve-free floor cannot reject the basis, so C
pairs count the bases accepted on the exact estimate.

`python tests/test_waveform_pins.py`, with expsim importable, prints
the PINS and PAIRS of the current code as literals to paste over the
ones below, so a re-pin is a reviewable diff.
"""

import functools
import hashlib

import pytest

import expsim as es
from expsim import decomp, stepper
from conftest import (
    LADDER_NETLIST,
    MIXED_NETLIST,
    SINGULAR_C_NETLIST,
    TWO_SOURCE_NETLIST,
)

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

# Inductors and current sources only: C is nonsingular.
RLC_ISOURCE_NETLIST = """* rlc line with current drives only
R1 1 0 20
L1 1 2 2n
R2 2 3 5
C1 1 0 1e-12
C2 2 0 1e-12
L2 3 4 1n
C3 3 0 2e-12
R4 4 0 50
C4 4 0 5e-13
I1 0 1 PULSE(0 2m 5e-11 1e-11 1e-11 4e-11 1.5e-10)
I2 0 4 PWL(0 0 1e-10 1m 1.2e-10 0)
.TRAN 0 4e-10
.END
"""

NETLISTS = {
    "ladder": LADDER_NETLIST,
    "mixed": MIXED_NETLIST,
    "rlc-v": RLC_VSOURCE_NETLIST,
    "rlc-i": RLC_ISOURCE_NETLIST,
    "singular-c": SINGULAR_C_NETLIST,
    "two-source": TWO_SOURCE_NETLIST,
}


@functools.cache
def netlist_text(name: str) -> str:
    if name == "mesh":
        # 900 nodes and 12 sources in 3 shapes: products wide enough to
        # leave the small-matrix paths of the BLAS.
        return es.generate_mesh_netlist(900, 1e9, seed=3, n_sources=12).text
    return NETLISTS[name]


# (netlist, method, grouping) -> (times, states) digests, e_tol 1e-8.
PINS = {
    ('ladder', 'rmatex', 'one'): (
        '4af0d261fa937163092296c3',
        'efd4a6c99b7e563f21d93798',
    ),
    ('ladder', 'rmatex', 'default'): (
        '4af0d261fa937163092296c3',
        'af75007662d0836d538d0331',
    ),
    ('ladder', 'imatex', 'one'): (
        '4af0d261fa937163092296c3',
        'fa6dc38966281f271797c5d0',
    ),
    ('ladder', 'imatex', 'default'): (
        '4af0d261fa937163092296c3',
        '120f41ebfc5c197fda1c07d1',
    ),
    ('mixed', 'rmatex', 'one'): (
        '11fe0417e2548ea56b64034e',
        '11f31294e313257395b14218',
    ),
    ('mixed', 'rmatex', 'default'): (
        '11fe0417e2548ea56b64034e',
        '271cfe1b85c96c19feec5efe',
    ),
    ('mixed', 'imatex', 'one'): (
        '11fe0417e2548ea56b64034e',
        '9a4975aacaa9a1f4f4cad521',
    ),
    ('mixed', 'imatex', 'default'): (
        '11fe0417e2548ea56b64034e',
        '30f657b51f38cff24693013a',
    ),
    ('rlc-v', 'rmatex', 'one'): (
        'f34f435ae62c206b353af7e1',
        'be3266646ab953e2d256808e',
    ),
    ('rlc-v', 'rmatex', 'default'): (
        'f34f435ae62c206b353af7e1',
        '44ae36a349e7ea63a0a89245',
    ),
    ('rlc-v', 'imatex', 'one'): (
        'f34f435ae62c206b353af7e1',
        '3d200d4b7924ac16564856d8',
    ),
    ('rlc-v', 'imatex', 'default'): (
        'f34f435ae62c206b353af7e1',
        'fb8708c9a43bbd70138ef7b6',
    ),
    ('rlc-i', 'rmatex', 'one'): (
        '9c09c7955e90c49441701d3d',
        '47bd0b35b4cf13f323df7075',
    ),
    ('rlc-i', 'rmatex', 'default'): (
        '9c09c7955e90c49441701d3d',
        '80ff7993b46aa27e7bb8aaa0',
    ),
    ('rlc-i', 'imatex', 'one'): (
        '9c09c7955e90c49441701d3d',
        '70076504b68ce65491c2ae85',
    ),
    ('rlc-i', 'imatex', 'default'): (
        '9c09c7955e90c49441701d3d',
        'a1929119a0362dceeaf793a7',
    ),
    ('singular-c', 'rmatex', 'one'): (
        'ef312221a75846532c4daa58',
        '2a1e97f35ac7b0a2fe8375d1',
    ),
    ('singular-c', 'rmatex', 'default'): (
        'ef312221a75846532c4daa58',
        '04912b3d1da70c46264cbe23',
    ),
    ('singular-c', 'imatex', 'one'): (
        'ef312221a75846532c4daa58',
        '56651188a7830601e8c557ff',
    ),
    ('singular-c', 'imatex', 'default'): (
        'ef312221a75846532c4daa58',
        'e6b5c7149f28122146276b77',
    ),
    ('two-source', 'rmatex', 'one'): (
        '4af0d261fa937163092296c3',
        '94da23e438645ab7a0e7b987',
    ),
    ('two-source', 'rmatex', 'default'): (
        '4af0d261fa937163092296c3',
        'bc4e78516058ba135abc5db6',
    ),
    ('two-source', 'imatex', 'one'): (
        '4af0d261fa937163092296c3',
        '31664f00848ec8d2ee478cd3',
    ),
    ('two-source', 'imatex', 'default'): (
        '4af0d261fa937163092296c3',
        '71c73fd1d6c30d4c8d21a331',
    ),
    ('mesh', 'rmatex', 'one'): (
        'f79c958b95b574ebb67dc1c2',
        '64dd401885f3bcf2a6eca34b',
    ),
    ('mesh', 'rmatex', 'default'): (
        'f79c958b95b574ebb67dc1c2',
        '2992c616de1a5621ccca5529',
    ),
    ('mesh', 'imatex', 'one'): (
        'f79c958b95b574ebb67dc1c2',
        'ccb7df859a92dcc79ecdfae7',
    ),
    ('mesh', 'imatex', 'default'): (
        'f79c958b95b574ebb67dc1c2',
        '978d92431d130b91705d8ce1',
    ),
}

# (netlist, method, grouping) -> (G, C, shift) substitution pairs, e_tol
# 1e-8.
PAIRS = {
    ('ladder', 'rmatex', 'one'): (4, 0, 40),
    ('ladder', 'rmatex', 'default'): (4, 1, 42),
    ('ladder', 'imatex', 'one'): (44, 0, 0),
    ('ladder', 'imatex', 'default'): (46, 1, 0),
    ('mixed', 'rmatex', 'one'): (10, 0, 78),
    ('mixed', 'rmatex', 'default'): (10, 1, 110),
    ('mixed', 'imatex', 'one'): (88, 0, 0),
    ('mixed', 'imatex', 'default'): (120, 1, 0),
    ('rlc-v', 'rmatex', 'one'): (6, 0, 28),
    ('rlc-v', 'rmatex', 'default'): (6, 0, 32),
    ('rlc-v', 'imatex', 'one'): (34, 0, 0),
    ('rlc-v', 'imatex', 'default'): (38, 0, 0),
    ('rlc-i', 'rmatex', 'one'): (4, 0, 72),
    ('rlc-i', 'rmatex', 'default'): (4, 0, 78),
    ('rlc-i', 'imatex', 'one'): (76, 0, 0),
    ('rlc-i', 'imatex', 'default'): (82, 0, 0),
    ('singular-c', 'rmatex', 'one'): (2, 0, 8),
    ('singular-c', 'rmatex', 'default'): (2, 0, 8),
    ('singular-c', 'imatex', 'one'): (10, 0, 0),
    ('singular-c', 'imatex', 'default'): (10, 0, 0),
    ('two-source', 'rmatex', 'one'): (4, 0, 20),
    ('two-source', 'rmatex', 'default'): (4, 0, 22),
    ('two-source', 'imatex', 'one'): (24, 0, 0),
    ('two-source', 'imatex', 'default'): (26, 0, 0),
    ('mesh', 'rmatex', 'one'): (6, 21, 108),
    ('mesh', 'rmatex', 'default'): (6, 25, 120),
    ('mesh', 'imatex', 'one'): (132, 21, 0),
    ('mesh', 'imatex', 'default'): (128, 25, 0),
}


def digest(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()[:24]


@functools.cache
def run(name, method, grouping):
    system = es.build_system(netlist_text(name))
    cfg = stepper.SolverConfig(method=method, e_tol=1e-8)
    if grouping == "one":
        return stepper.solve_transient(system, cfg)
    return decomp.run_superposed(system, cfg, max_groups=system.num_sources).merged


@pytest.mark.parametrize("case", sorted(PINS), ids="-".join)
def test_waveform_bytes_are_pinned(case):
    result = run(*case)
    assert (digest(result.times), digest(result.states)) == PINS[case]


@pytest.mark.parametrize("case", sorted(PAIRS), ids="-".join)
def test_pairs_by_factor_are_pinned(case):
    result = run(*case)
    assert (result.g_pairs, result.c_pairs, result.shift_pairs) == PAIRS[case]


if __name__ == "__main__":
    print("PINS = {")
    for case in PINS:
        result = run(*case)
        print(f"    {case!r}: (")
        print(f"        {digest(result.times)!r},\n        {digest(result.states)!r},\n    ),")
    print("}\n")
    print("PAIRS = {")
    for case in PAIRS:
        result = run(*case)
        print(f"    {case!r}: {(result.g_pairs, result.c_pairs, result.shift_pairs)!r},")
    print("}")
