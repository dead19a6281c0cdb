"""Orbit report strings from the exact decimal walk, against the str-free
powers-of-ten oracle."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitprimes import INFINITY, MapConstructionError, RationalMap, intplaces, reports
from orbitprimes.cli import main
from orbitprimes.errors import InvariantError
from orbitprimes.zsigmondy import orbit, zsigmondy_report
from oracles import to_decimal_by_powers_of_ten


def expected_value(value):
    if value is INFINITY:
        return "inf"
    text = to_decimal_by_powers_of_ten(value.numerator)
    if value.denominator != 1:
        text += "/" + to_decimal_by_powers_of_ten(value.denominator)
    return text


def assert_rendered(rmap, alpha, depth):
    """Every value and primitive-part string of both orbit builders equals
    the oracle's; returns the orbit's termination."""
    records, termination = orbit(rmap, alpha, depth)
    built = reports.build_orbit(rmap, "a", "Q", records, termination, {})
    assert [row["value"] for row in built["data"]["values"]] == \
        [expected_value(rec.value) for rec in records]
    report = zsigmondy_report(rmap, alpha, depth=depth, squarefree_depth=0)
    built = reports.build_zsigmondy(rmap, report, {})
    rows = built["data"]["records"]
    assert len(rows) == len(report.records) == len(records)
    for row, rec in zip(rows, report.records):
        assert row["value"] == expected_value(rec.value)
        part = rec.primitive_part
        assert row.get("primitive_part") == (None if part is None else to_decimal_by_powers_of_ten(part))
    return termination


def rendered_from(bits):
    """Walk every value above `bits` bits instead of above one piece."""
    return mock.patch.object(reports, "_DECIMAL_PIECE_BITS", bits)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(num=st.lists(small_rationals, min_size=1, max_size=4),
       den=st.lists(small_rationals, min_size=1, max_size=4),
       alpha=st.fractions(min_value=-5, max_value=5, max_denominator=5),
       walk_above=st.sampled_from([0, 64, intplaces._DECIMAL_PIECE_BITS]))
@example(num=[Fraction(-3, 4), 0, 2], den=[1], alpha=Fraction(3, 2), walk_above=2000)
@example(num=[2, 0, 3], den=[-1, 0, 1], alpha=Fraction(1), walk_above=2000)
@example(num=[0, 2, 0, 1], den=[3, 0, 4], alpha=Fraction(-1, 2), walk_above=0)
def test_walk_matches_powers_of_ten(num, den, alpha, walk_above):
    """Random degree-2/3 maps with non-unit resultants (so g > 1 occurs),
    rational and negative alpha; deep enough that values pass one piece."""
    try:
        m = RationalMap(num, den)
    except MapConstructionError:
        assume(False)
    with rendered_from(walk_above):
        assert_rendered(m, alpha, 13 if m.degree == 2 else 8)


def test_walk_divides_by_the_form_content(monkeypatch):
    # 2x^2 - 3/4 has resultant 1024 and g = 8 at both walked levels of 3/2
    contents = []
    content = reports._form_content
    monkeypatch.setattr(reports, "_form_content",
                        lambda rmap, a, b: contents.append(content(rmap, a, b)) or contents[-1])
    assert_rendered(RationalMap.parse("2x^2-3/4"), Fraction(3, 2), 12)
    assert contents and all(g == 8 for g in contents)


@pytest.mark.parametrize("walk_above", [0, intplaces._DECIMAL_PIECE_BITS])
@pytest.mark.parametrize("text, alpha, depth, kind", [
    ("(2x^2+1)/(x^2-1)", 1, 14, "reached-n"),  # 1 -> inf -> 2 -> 3 -> 19/8 ...
    ("x^2-3x+2", 3, 5, "hit-zero"),  # 3 -> 2 -> 0
    ("x^2-1", 0, 7, "preperiodic"),  # -1, 0, -1, ... replayed
    ("x^2-3/4", Fraction(1, 2), 5, "preperiodic"),  # -1/2, -1/2, ... replayed
])
def test_walk_named_orbits(text, alpha, depth, kind, walk_above):
    with rendered_from(walk_above):
        assert assert_rendered(RationalMap.parse(text), alpha, depth).kind == kind


def test_walk_restarts_after_infinity():
    records, _ = orbit(RationalMap.parse("(2x^2+1)/(x^2-1)"), 1, 14)
    assert records[0].value is INFINITY
    assert records[-1].value.numerator.bit_length() > intplaces._DECIMAL_PIECE_BITS


def test_walk_up_to_the_digit_cap():
    rmap = RationalMap.parse("x^2-6", digit_cap=3000)
    assert assert_rendered(rmap, 5, 20).kind == "resource-cap"
    records, _ = orbit(rmap, 5, 20)
    assert records[-1].value.numerator.bit_length() > 4 * intplaces._DECIMAL_PIECE_BITS


def test_walk_converts_one_big_number_at_most(monkeypatch, capsys):
    """Past the first level every big value and part comes from the walk."""
    big = []
    convert = intplaces.exact_decimal

    def spy(n):
        if n.bit_length() > intplaces._DECIMAL_PIECE_BITS:
            big.append(n.bit_length())
        return convert(n)

    monkeypatch.setattr(intplaces, "exact_decimal", spy)
    monkeypatch.setattr(reports, "exact_decimal", spy)
    args = ["zsigmondy", "--map", "x^2-6", "--alpha", "5", "--max-n", "17",
            "--squarefree-max-n", "4", "--budget", "20000"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert big == []  # level 1 is 19; at most it would be one number
    assert len(out) > 300_000  # level 17 alone has 83568 digits, twice


@pytest.mark.parametrize("wrong", [lambda g: 3 * g, lambda g: 1, lambda g: g // 2])
def test_walk_with_a_wrong_content_is_an_invariant_error(monkeypatch, capsys, wrong):
    """A g off by a factor breaks an exact division or the digit check."""
    content = reports._form_content
    monkeypatch.setattr(reports, "_form_content", lambda rmap, a, b: wrong(content(rmap, a, b)))
    rmap = RationalMap.parse("2x^2-3/4")
    records, termination = orbit(rmap, Fraction(3, 2), 12)
    with pytest.raises(InvariantError):
        reports.build_orbit(rmap, "3/2", "Q", records, termination, {})
    assert main(["orbit", "--map", "2x^2-3/4", "--alpha", "3/2", "--max-n", "12"]) == 3
    assert "internal invariant violation: decimal walk" in capsys.readouterr().err
