"""Netlist parsing, waveform evaluation and MNA assembly."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsim as es
from expsim import netlist, numkit
from expsim.errors import NetlistError, NumericalError


class TestParseValue:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("10", 10.0),
            ("-2.5", -2.5),
            (".5", 0.5),
            ("1e-9", 1e-9),
            ("10p", 10e-12),
            ("10ps", 10e-12),
            ("2pF", 2e-12),
            ("3n", 3e-9),
            ("4.7u", 4.7e-6),
            ("5m", 5e-3),
            ("2k", 2e3),
            ("1MEG", 1e6),
            ("1f", 1e-15),
            ("2G", 2e9),
            ("1t", 1e12),
            ("1.5THz", 1.5e12),
            ("10V", 10.0),  # bare unit letters, no scale
        ],
    )
    def test_values(self, token, expected):
        assert netlist.parse_value(token) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "token", ["", "abc", "--3", "1.2.3", "4%", "1e400", "-1e400", "1e300T"]
    )
    def test_rejects_garbage(self, token):
        with pytest.raises(ValueError):
            netlist.parse_value(token)


# The regex-only parse that parse_value's float() shortcut must agree with.
REFERENCE_NUMBER = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:E[+-]?\d+)?)(MEG|[FPNUMKGT])?(.*)", re.S
)
REFERENCE_SUFFIXES = {
    "MEG": 1e6, "F": 1e-15, "P": 1e-12, "N": 1e-9, "U": 1e-6,
    "M": 1e-3, "K": 1e3, "G": 1e9, "T": 1e12,
}


def reference_value(token):
    text = token.strip().upper()
    match = REFERENCE_NUMBER.match(text)
    if match is None:
        raise ValueError(f"not a number: {token!r}")
    number, suffix, rest = match.groups()
    if rest and not rest.isalpha():
        raise ValueError(f"bad suffix on number: {token!r}")
    value = float(number) * REFERENCE_SUFFIXES[suffix] if suffix else float(number)
    if not np.isfinite(value):
        raise ValueError(f"number out of range: {token!r}")
    return value


def outcome(parse, token):
    """The value's repr (which tells -0.0 from 0.0) or the error message."""
    try:
        return repr(parse(token))
    except ValueError as exc:
        return f"ValueError: {exc}"


SIGNS = st.sampled_from(["", "+", "-"])
UNICODE_DIGITS = st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4)
VALUE_TOKENS = st.one_of(
    st.floats().map(repr),  # plain numbers, inf, nan and 1e+300 alike
    st.builds(
        "{}{}{}{}".format,
        SIGNS,
        st.floats(0, 1e6).map(repr),
        st.sampled_from(["", "f", "P", "n", "u", "M", "k", "meg", "MEG", "g", "T"]),
        st.text("sSfFhHzZvVaA", max_size=3),
    ),
    st.builds(
        "{}{}.{}e{}".format, SIGNS, UNICODE_DIGITS, UNICODE_DIGITS, UNICODE_DIGITS
    ),
    st.sampled_from([
        "1_0", "1_000.5", "_1", "1__0", "1e1_0", "inf", "-INF", "+Infinity", "nan",
        "-NaN", "infinity", "1e400", "-1e400", "1e-400", ".5", "-.5e-3", "1.", "1.e5",
        ".", "e5", "1e", "1e-", "", " ", "1 2", "1M5", "1e300T", " 10ps ", "\x1c1",
        "1\x1c", "\u30001", "\u0663.\u0665", "\uff11\uff12", "0x10",
    ]),
    st.text("0123456789.eE+-_ infatyMEGFPNUKTmegpnuk\t\x1c\u3000\u0663\uff15", max_size=12),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(token=VALUE_TOKENS)
def test_parse_value_matches_the_regex_only_parse(token):
    assert outcome(netlist.parse_value, token) == outcome(reference_value, token)


class TestQuantize:
    def test_snaps_to_femtosecond_grid(self):
        t = 1.23456789e-12
        q = netlist.quantize_time(t)
        assert q == pytest.approx(1.235e-12, abs=1e-18)
        assert round(q / netlist.TIME_QUANTUM) * netlist.TIME_QUANTUM == q


class TestWaveforms:
    def test_dc(self):
        w = netlist.Dc(3.0)
        assert w.value(0.0) == 3.0
        assert w.transition_times(0, 10).size == 0

    def test_pulse_values(self):
        w = netlist.Pulse(0.0, 1.0, t_delay=1.0, t_rise=1.0, t_fall=2.0,
                          t_width=3.0, t_period=10.0)
        assert w.value(0.5) == 0.0
        assert w.value(1.5) == 0.5  # mid rise
        assert w.value(3.0) == 1.0  # flat top
        assert w.value(6.0) == 0.5  # mid fall
        assert w.value(8.0) == 0.0
        assert w.value(11.5) == 0.5  # second period

    def test_pulse_transition_times(self):
        w = netlist.Pulse(0.0, 1.0, 1e-9, 1e-9, 2e-9, 3e-9, 10e-9)
        got = w.transition_times(0.0, 12.5e-9)
        np.testing.assert_allclose(
            got, np.array([1.0, 2.0, 5.0, 7.0, 11.0, 12.0]) * 1e-9
        )

    def test_late_pulse_span_skips_earlier_periods(self, monkeypatch):
        # A 0.1 ns span a microsecond in covers ten 10 ps periods; the
        # 10^5 periods before it must not each be quantized.
        sizes = []
        real = netlist.quantize_time
        monkeypatch.setattr(
            netlist, "quantize_time", lambda t: sizes.append(np.size(t)) or real(t)
        )
        w = netlist.Pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 3e-12, 10e-12)
        assert w.transition_times(1e-6, 1e-6 + 1e-10).size == 40
        assert sum(sizes) <= 4 * 16

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            netlist.Pulse(0, 1, 0.0, 0.0, 1.0, 1.0, 10.0)  # zero rise
        with pytest.raises(ValueError):
            netlist.Pulse(0, 1, 0.0, 1.0, 1.0, 9.0, 10.0)  # period too short

    def test_pwl_values_and_extrapolation(self):
        w = netlist.Pwl(((1.0, 0.0), (2.0, 2.0), (4.0, 2.0)))
        assert w.value(0.0) == 0.0  # constant before
        assert w.value(1.5) == 1.0
        assert w.value(3.0) == 2.0
        assert w.value(9.0) == 2.0  # constant after

    def test_pwl_transition_times_clipped(self):
        w = netlist.Pwl(((1.0, 0.0), (2.0, 2.0), (4.0, 2.0)))
        np.testing.assert_allclose(w.transition_times(1.5, 10.0), [2.0, 4.0])

    def test_pwl_validation(self):
        with pytest.raises(ValueError):
            netlist.Pwl(((1.0, 0.0), (1.0, 2.0)))
        with pytest.raises(ValueError):
            netlist.Pwl(())


# Pairs of faulty lines that different checks catch.
TWO_FAULTS = [
    ("R9 9 0 1_0", "X9 9 0 1"),
    ("C9 9 0 inf", "R8 8 8 1"),
    ("L9 9 0 1e400", "R9 9 0 -1"),
    (".TRAN 0", "R1 9 0 1k"),
]


class TestParseNetlist:
    def test_comments_blanks_and_case(self):
        nl = netlist.parse_netlist(
            """* title line
            ; semicolon comment line
            r1 a B 10 ; trailing comment

            C1 b 0 1n;no space
            .tran 0 1u ; span
            .end
            ignored after end
            """
        )
        assert nl.kinds == ["R", "C"]
        assert nl.pos[0] == "A" and nl.neg[0] == "B"
        assert nl.values == [10.0, pytest.approx(1e-9)]
        assert nl.t_start == 0.0 and nl.t_stop == pytest.approx(1e-6)

    def test_tokens_after_a_value_are_ignored(self):
        nl = netlist.parse_netlist("R1 1 0 10 tc=0.1\nC1 1 0 2p  extra words \n")
        assert nl.values == [10.0, pytest.approx(2e-12)]

    def test_source_specs(self):
        nl = netlist.parse_netlist(
            """I1 0 1 DC 2m
            I2 0 1 5
            V1 2 0 PULSE(0 1 1n 1n 1n 2n 10n)
            V2 3 0 PWL(0 0, 1n 1)
            .END
            """
        )
        w = nl.waveforms
        assert isinstance(w[0], netlist.Dc) and w[0].level == pytest.approx(2e-3)
        assert isinstance(w[1], netlist.Dc) and w[1].level == 5.0
        assert isinstance(w[2], netlist.Pulse)
        assert isinstance(w[3], netlist.Pwl) and w[3].points == ((0.0, 0.0), (1e-9, 1.0))

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("R1 1 0\n.END\n", 1),
            ("R1 1 1 10\n.END\n", 1),
            ("R1 1 0 10\nR1 2 0 10\n.END\n", 2),
            ("X1 1 0 10\n.END\n", 1),
            ("R1 1 0 -5\n.END\n", 1),
            ("R1 1 0 10\n.TRAN 1\n.END\n", 2),
            ("R1 1 0 10\n.TRAN 2n 1n\n.END\n", 2),
            ("R1 1 0 10\n.NODESET 1\n.END\n", 2),
            ("I1 0 1 PULSE(0 1 0)\n.END\n", 1),
            ("I1 0 1 PWL(0 0 1)\n.END\n", 1),
            ("R1 1 0 1\nI1 0 1 PULSE 0 1 0 1 1 1 5\n.END\n", 2),
            ("R1 1 0 1\nI1 0 1 PWL 0 0 1 1\n.END\n", 2),
            ("R1 1 0 1\nC1 a,b 0 1p\n", 2),  # names head the CSV columns
            ("R1 1 0 1\nC1,2 1 0 1p\n", 2),
        ]
        # Two faults on lines 2 and 4, in both orders: line 2 is reported.
        + [
            (f"R1 1 0 1\n{a}\nR2 2 0 1k\n{b}\n.END\n", 2)
            for pair in TWO_FAULTS
            for a, b in (pair, pair[::-1])
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(NetlistError) as info:
            netlist.parse_netlist(text)
        assert info.value.line_no == line_no
        assert f"line {line_no}:" in str(info.value)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("PULSE 0 1 0 1 1 1 5", "malformed PULSE(...)"),
            ("PWL 0 0 1 1", "malformed PWL(...)"),
            ("PULSE(0 1 0)", "PULSE takes 7 values, got 3"),
            ("PWL(0 0 1)", "PWL takes an even number of values"),
            (
                "PWL(0 0 1n 0 1.0000000000001n 1)",
                "PWL times 1e-09 and 1.0000000000001e-09 snap to the same femtosecond",
            ),
            ("PULSE(0 1 0 1n 1n -1n 10n)", "pulse width must be nonnegative"),
            ("PULSE(0 1 -1n 1n 1n 1n 10n)", "pulse delay must be nonnegative"),
        ],
    )
    def test_source_spec_messages(self, spec, message):
        with pytest.raises(NetlistError) as info:
            netlist.parse_netlist(f"I1 0 1 {spec}\n.END\n")
        assert str(info.value) == f"line 1: {message}"

    def test_infinite_stop_time_rejected(self):
        # An infinite span would keep Pulse.transition_times looping.
        text = "I1 0 1 PULSE(0 1 0 1n 1n 1n 5n)\nR1 1 0 1\nC1 1 0 1p\n.TRAN 0 1e400\n"
        with pytest.raises(NetlistError) as info:
            es.build_system(text)
        assert info.value.line_no == 4
        assert "out of range" in str(info.value)

    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError):
            netlist.parse_netlist("* nothing here\n")


class TestStampMna:
    def test_single_node_rc(self):
        sys_ = es.build_system("R1 1 0 2\nC1 1 0 3\nI1 0 1 DC 4\n.END\n")
        np.testing.assert_allclose(sys_.g.to_dense(), [[0.5]])
        np.testing.assert_allclose(sys_.c.to_dense(), [[3.0]])
        np.testing.assert_allclose(sys_.b.to_dense(), [[1.0]])
        assert sys_.names == ["v(1)"]
        assert sys_.source_names == ["i1"]

    def test_two_node_hand_stamp(self):
        sys_ = es.build_system(
            "R1 1 2 2\nR2 2 0 4\nC1 1 0 5\nC2 1 2 7\nI1 0 1 DC 1\n.END\n"
        )
        g = np.array([[0.5, -0.5], [-0.5, 0.75]])
        c = np.array([[12.0, -7.0], [-7.0, 7.0]])
        np.testing.assert_allclose(sys_.g.to_dense(), g)
        np.testing.assert_allclose(sys_.c.to_dense(), c)

    def test_nodes_numbered_by_first_appearance(self):
        sys_ = es.build_system("R1 B A 1\nR2 A 0 1\nC1 A 0 1\nC2 B 0 1\n.END\n")
        assert sys_.names == ["v(b)", "v(a)"]

    def test_voltage_source_branch(self):
        sys_ = es.build_system("V1 1 0 DC 2\nR1 1 2 1\nR2 2 0 1\nC1 2 0 1\n.END\n")
        # unknowns: v(1), v(2), i(v1)
        assert sys_.names == ["v(1)", "v(2)", "i(v1)"]
        g = np.array([[1.0, -1.0, 1.0], [-1.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(sys_.g.to_dense(), g)
        with pytest.raises(NumericalError, match="empty row or column"):
            numkit.lu_factorize(sys_.c)  # the branch row of C is empty
        np.testing.assert_allclose(sys_.b.to_dense()[:, 0], [0.0, 0.0, 1.0])

    def test_inductor_branch(self):
        sys_ = es.build_system("I1 0 1 DC 1\nR1 1 0 1\nL1 1 0 2\nC1 1 0 3\n.END\n")
        assert sys_.names == ["v(1)", "i(l1)"]
        np.testing.assert_allclose(
            sys_.g.to_dense(), [[1.0, 1.0], [1.0, 0.0]]
        )
        np.testing.assert_allclose(
            sys_.c.to_dense(), [[3.0, 0.0], [0.0, -2.0]]
        )

    def test_inductor_between_nodes(self):
        sys_ = es.build_system(
            "I1 0 1 DC 1\nR1 1 0 1\nL1 1 2 2\nR2 2 0 4\nC1 1 0 3\nC2 2 0 5\n.END\n"
        )
        assert sys_.names == ["v(1)", "v(2)", "i(l1)"]
        g = np.array([[1.0, 0.0, 1.0], [0.0, 0.25, -1.0], [1.0, -1.0, 0.0]])
        np.testing.assert_array_equal(sys_.g.to_dense(), g)
        np.testing.assert_array_equal(sys_.c.to_dense(), np.diag([3.0, 5.0, -2.0]))
        np.testing.assert_array_equal(sys_.b.to_dense()[:, 0], [1.0, 0.0, 0.0])

    def test_voltage_source_between_nodes(self):
        sys_ = es.build_system(
            "V1 1 2 DC 2\nR1 1 0 1\nR2 2 0 4\nC1 2 0 1\n.END\n"
        )
        assert sys_.names == ["v(1)", "v(2)", "i(v1)"]
        g = np.array([[1.0, 0.0, 1.0], [0.0, 0.25, -1.0], [1.0, -1.0, 0.0]])
        np.testing.assert_array_equal(sys_.g.to_dense(), g)
        np.testing.assert_array_equal(sys_.c.to_dense(), np.diag([0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(sys_.b.to_dense()[:, 0], [0.0, 0.0, 1.0])
        # The source holds v(1) - v(2) = 2 across two grounded resistors.
        np.testing.assert_allclose(es.dc_analysis(sys_), [0.4, -1.6, -0.4])

    def test_current_source_direction(self):
        # I 0->1 injects at node 1: positive DC level lifts v(1).
        sys_ = es.build_system("I1 0 1 DC 2\nR1 1 0 3\nC1 1 0 1\n.END\n")
        x = es.dc_analysis(sys_)
        np.testing.assert_allclose(x, [6.0])

    def test_current_source_between_nodes(self):
        # I 1->2 draws its current out of node 1 and injects it at node 2.
        sys_ = es.build_system("I1 1 2 DC 1\nR1 1 0 1\nR2 2 0 1\nC1 1 0 1\n.END\n")
        np.testing.assert_array_equal(sys_.b.to_dense()[:, 0], [-1.0, 1.0])
        np.testing.assert_allclose(es.dc_analysis(sys_), [-1.0, 1.0])

    def test_eval_sources_mask(self):
        # Restricting the drive to a source subset is a subsystem: the
        # deselected sources leave u and their columns leave B.
        sys_ = es.build_system(
            "I1 0 1 DC 2\nI2 0 2 DC 5\nR1 1 0 1\nR2 2 0 1\nC1 1 0 1\n.END\n"
        )
        np.testing.assert_allclose(sys_.eval_sources(0.0), [2.0, 5.0])
        sub = sys_.subsystem([1])
        np.testing.assert_allclose(sub.eval_sources(0.0), [5.0])
        assert sub.source_names == ["i2"]
        np.testing.assert_array_equal(sub.b.to_dense(), sys_.b.to_dense()[:, [1]])
        assert sub.c is sys_.c and sub.g is sys_.g
        np.testing.assert_allclose(es.dc_analysis(sub), [0.0, 5.0])

    @pytest.mark.parametrize(
        "text,floating",
        [
            pytest.param("R1 1 0 1\nC1 1 0 1\nC2 2 0 1\n", "2", id="cap-only-node"),
            pytest.param(
                "R1 1 0 1\nC1 1 0 1\nR2 Y X 1\nCY Y 0 1\nCX X 0 1\n", "X, Y",
                id="ungrounded-r-island",
            ),
            pytest.param("L1 1 0 1\nC1 1 0 1\nR1 1 2 1\nC2 2 0 1\n", None, id="grounded-by-l"),
            pytest.param("V1 1 0 DC 1\nR1 1 2 1\nC2 2 0 1\n", None, id="grounded-by-v"),
        ],
    )
    def test_floating_node_warns(self, text, floating):
        if floating is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                es.build_system(text + ".END\n")
            return
        with pytest.warns(UserWarning) as record:
            es.build_system(text + ".END\n")
        assert [str(w.message) for w in record] == [
            f"nodes with no DC path to ground: {floating}"
        ]

    @pytest.mark.parametrize(
        "assemble",
        [
            pytest.param(es.build_system, id="build_system"),
            pytest.param(
                lambda text: netlist.stamp_mna(netlist.parse_netlist(text)),
                id="stamp_mna",
            ),
        ],
    )
    def test_floating_node_warning_names_the_caller(self, assemble):
        with pytest.warns(UserWarning) as record:
            assemble("R1 1 0 1\nC1 1 0 1\nC2 2 0 1\n.END\n")
        assert record[0].filename == __file__


class TestDcAnalysis:
    def test_matches_dense_solve(self):
        sys_ = es.build_system(
            """I1 0 1 DC 1m
            I2 0 3 DC -2m
            R1 1 2 100
            R2 2 3 200
            R3 2 0 300
            R4 3 0 400
            C1 1 0 1p
            C2 3 0 2p
            .END
            """
        )
        x = es.dc_analysis(sys_)
        u0 = sys_.eval_sources(0.0)
        expected = np.linalg.solve(sys_.g.to_dense(), sys_.b.to_dense() @ u0)
        assert np.linalg.norm(expected) > 0
        np.testing.assert_allclose(x, expected, rtol=1e-12)

    def test_reuses_given_factors(self, ladder_system):
        factors = numkit.lu_factorize(ladder_system.g)
        es.dc_analysis(ladder_system, factors)
        assert factors.solve_count == 1

    def test_singular_conductance_reported(self):
        with pytest.warns(UserWarning):
            sys_ = es.build_system("C1 1 0 1\nI1 0 1 DC 1\n.END\n")
        with pytest.raises(NumericalError, match="^no DC operating point: "):
            es.dc_analysis(sys_)

    def test_voltage_divider(self):
        sys_ = es.build_system(
            "V1 1 0 DC 6\nR1 1 2 1\nR2 2 0 2\nC1 2 0 1\n.END\n"
        )
        x = es.dc_analysis(sys_)
        np.testing.assert_allclose(x[:2], [6.0, 4.0])
        np.testing.assert_allclose(x[2], -2.0)  # branch current out of V+
