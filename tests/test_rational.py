import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from borwin.rational import PLUS_INF, decimal_str, floor_rat, rat, rat_str

F = Fraction


def test_parse_forms():
    assert rat(5) == F(5)
    assert rat("3/4") == F(3, 4)
    assert rat("-7/2") == F(-7, 2)
    assert rat("0.15") == F(3, 20)
    assert rat("-2.5") == F(-5, 2)
    assert rat(F(9, 6)) == F(3, 2)


def test_parse_rejections():
    with pytest.raises(ValueError):
        rat("abc")
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_long_decimal_exponents_are_rejected_promptly():
    """``Fraction("1e99999999")`` would build a 10**8-digit integer; ``rat``
    refuses an exponent of more than four digits before it does."""
    start = time.process_time()
    for text in ("1e99999999", "1E+10000", "-2.5e-1_0000", " 3e123456\n"):
        with pytest.raises(ValueError, match="not a rational"):
            rat(text)
    assert time.process_time() - start < 1.0
    assert rat("1e9999") == 10**9999
    assert rat("1e-0009999") == F(1, 10**9999)


def test_rat_str_roundtrip():
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(5)) == "5/1"
    assert rat(rat_str(F(-22, 7))) == F(-22, 7)


def test_floor_and_integral():
    assert floor_rat(F(623, 19)) == 32
    assert floor_rat(F(-7, 2)) == -4
    assert floor_rat(F(17)) == 17


def test_plus_inf_is_a_sentinel():
    assert repr(PLUS_INF) == "PLUS_INF"
    with pytest.raises(TypeError):
        PLUS_INF + 1  # type: ignore[operator]


def test_decimal_str():
    assert decimal_str(F(14, 5)) == "2.8"
    assert decimal_str(F(-31, 5)) == "-6.2"
    assert decimal_str(F(18)) == "18"
    assert decimal_str(F(1, 8)) == "0.125"
    with pytest.raises(ValueError):
        decimal_str(F(1, 3))


@given(st.fractions())
def test_rat_str_always_roundtrips(q):
    assert rat(rat_str(q)) == q


@given(st.fractions())
def test_floor_bracket(q):
    f = floor_rat(q)
    assert f <= q < f + 1
