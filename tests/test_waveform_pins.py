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
in group index order. Every states digest was re-pinned when LU solves
moved to SuperLU's transposed kernel on the factors of A^T, which
reorders the substitutions' rounding; the times and the pairs kept
their values.

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
    RLC_VSOURCE_NETLIST,
    SINGULAR_C_NETLIST,
    TWO_SOURCE_NETLIST,
)

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
        '6c9eaa763d72af84ae41c2c3',
    ),
    ('ladder', 'rmatex', 'default'): (
        '4af0d261fa937163092296c3',
        '36794152b3fbb2c2c27677a8',
    ),
    ('ladder', 'imatex', 'one'): (
        '4af0d261fa937163092296c3',
        'c895e5edf73f12e9232dbaee',
    ),
    ('ladder', 'imatex', 'default'): (
        '4af0d261fa937163092296c3',
        '881985c66866f8d24249e746',
    ),
    ('mixed', 'rmatex', 'one'): (
        '11fe0417e2548ea56b64034e',
        '7f9c286725f7ae988d68c061',
    ),
    ('mixed', 'rmatex', 'default'): (
        '11fe0417e2548ea56b64034e',
        'df9998790a4d9decc38f7ef6',
    ),
    ('mixed', 'imatex', 'one'): (
        '11fe0417e2548ea56b64034e',
        '73370c7d8fcc512fdcc2e7c8',
    ),
    ('mixed', 'imatex', 'default'): (
        '11fe0417e2548ea56b64034e',
        '1e62c2fae983d88fd190f5b1',
    ),
    ('rlc-v', 'rmatex', 'one'): (
        'f34f435ae62c206b353af7e1',
        'b1774110bf6bdafdbf086ec2',
    ),
    ('rlc-v', 'rmatex', 'default'): (
        'f34f435ae62c206b353af7e1',
        'acbf674c9fc3e79379b084fd',
    ),
    ('rlc-v', 'imatex', 'one'): (
        'f34f435ae62c206b353af7e1',
        '9c26e748cb1fce3d0db6c501',
    ),
    ('rlc-v', 'imatex', 'default'): (
        'f34f435ae62c206b353af7e1',
        '65315332ecdefb3fb648ff67',
    ),
    ('rlc-i', 'rmatex', 'one'): (
        '9c09c7955e90c49441701d3d',
        'fb5311f554481e8860dc1158',
    ),
    ('rlc-i', 'rmatex', 'default'): (
        '9c09c7955e90c49441701d3d',
        '01cdb84a457fdd9a18ca9346',
    ),
    ('rlc-i', 'imatex', 'one'): (
        '9c09c7955e90c49441701d3d',
        '13a92a147f2dbd953ace191a',
    ),
    ('rlc-i', 'imatex', 'default'): (
        '9c09c7955e90c49441701d3d',
        '91591b482bc5c2275c5d9b71',
    ),
    ('singular-c', 'rmatex', 'one'): (
        'ef312221a75846532c4daa58',
        '7aa62a163a59666992ac1706',
    ),
    ('singular-c', 'rmatex', 'default'): (
        'ef312221a75846532c4daa58',
        '562edd10a7c66e22803a3db4',
    ),
    ('singular-c', 'imatex', 'one'): (
        'ef312221a75846532c4daa58',
        'e14ce6a32331a48cb1a56b38',
    ),
    ('singular-c', 'imatex', 'default'): (
        'ef312221a75846532c4daa58',
        '13d1b914f9ce898aa2dcdf1a',
    ),
    ('two-source', 'rmatex', 'one'): (
        '4af0d261fa937163092296c3',
        '8e70576d67c1c193d8c4f689',
    ),
    ('two-source', 'rmatex', 'default'): (
        '4af0d261fa937163092296c3',
        '21266cedefdab84a5da40f76',
    ),
    ('two-source', 'imatex', 'one'): (
        '4af0d261fa937163092296c3',
        '0c87959e356a9650175cab0c',
    ),
    ('two-source', 'imatex', 'default'): (
        '4af0d261fa937163092296c3',
        '609d3cbdcdbec46b149ecdce',
    ),
    ('mesh', 'rmatex', 'one'): (
        'f79c958b95b574ebb67dc1c2',
        '297d6052583110bb8f423211',
    ),
    ('mesh', 'rmatex', 'default'): (
        'f79c958b95b574ebb67dc1c2',
        '8ff8bcc6a8ae140d040e9b3f',
    ),
    ('mesh', 'imatex', 'one'): (
        'f79c958b95b574ebb67dc1c2',
        'b6f0b9ccf77e2d850c6698ee',
    ),
    ('mesh', 'imatex', 'default'): (
        'f79c958b95b574ebb67dc1c2',
        'c4736a7f9e7df1e4cdc972ed',
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
