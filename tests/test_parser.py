"""Concrete syntax: lexing, parsing, printing, and the round-trip law."""

import pytest
from hypothesis import given

from conftest import terms
from cbpv import fixtures as fx
from cbpv.parser import ParseError, parse_term
from cbpv.printer import print_term, print_value
from cbpv.syntax import (
    App,
    ArithOp,
    Force,
    If0,
    Lam,
    LetRec,
    NumV,
    Op,
    Prd,
    Seq,
    ThunkV,
    VarV,
)

# ---------------------------------------------------------------------------
# parsing


def test_parse_simple_heads():
    assert parse_term("force x") == Force(VarV("x"))
    assert parse_term("prd 3") == Prd(NumV(3))
    assert parse_term("a + b") == Op(VarV("a"), ArithOp.ADD, VarV("b"))
    assert parse_term("x - 1") == Op(VarV("x"), ArithOp.SUB, NumV(1))
    assert parse_term("if0 0 { prd 1 } { prd 2 }") == fx.BRANCH_ZERO
    assert parse_term("force thunk { prd 0 }") == fx.FORCE_THUNK


def test_application_is_right_associative():
    got = parse_term("a . b . prd x")
    assert got == App(VarV("a"), App(VarV("b"), Prd(VarV("x"))))


def test_to_chains_nest_to_the_right():
    got = parse_term("prd 1 to x in prd 2 to y in prd x")
    assert got == Seq(Prd(NumV(1)), "x", Seq(Prd(NumV(2)), "y", Prd(VarV("x"))))


def test_to_binds_the_nearest_preceding_term():
    # the application body swallows the sequencing ...
    got = parse_term("5 . prd 1 to w in prd w")
    assert got == App(NumV(5), Seq(Prd(NumV(1)), "w", Prd(VarV("w"))))
    # ... and so does a lambda body
    got = parse_term("\\x. 1 + 2 to y in prd y")
    assert got == Lam("x", Seq(Op(NumV(1), ArithOp.ADD, NumV(2)), "y", Prd(VarV("y"))))


def test_parens_put_an_application_on_the_left_of_to():
    got = parse_term("(5 . prd 1) to w in prd w")
    assert got == Seq(App(NumV(5), Prd(NumV(1))), "w", Prd(VarV("w")))


def test_letrec_bundles():
    got = parse_term("letrec f = prd 1 and g = prd 2 in force f")
    assert got == LetRec((("f", Prd(NumV(1))), ("g", Prd(NumV(2)))), Force(VarV("f")))


def test_negative_numerals():
    assert parse_term("prd -5") == Prd(NumV(-5))
    assert parse_term("1 - -2") == Op(NumV(1), ArithOp.SUB, NumV(-2))
    assert parse_term("-3 . force f") == App(NumV(-3), Force(VarV("f")))


def test_primed_identifiers():
    assert parse_term("force x'") == Force(VarV("x'"))


@pytest.mark.parametrize(
    "src",
    [
        "",
        "prd",
        "x",  # a bare value is not a term
        "force thunk { prd 0",
        "prd 1 to in prd 2",
        "letrec in prd 1",
        "letrec to = prd 1 in force to",  # keyword as binder
        "prd 1 prd 2",  # trailing input
        "prd 1 ?",
        "if0 0 { prd 1 }",
    ],
)
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_term(src)


@pytest.mark.parametrize("char", ["é", "٣", "²"])
def test_non_ascii_letters_and_digits_are_unexpected_characters(char):
    with pytest.raises(ParseError) as exc:
        parse_term(f"prd 1 to x in\n  prd {char}")
    assert str(exc.value) == f"2:7: unexpected character {char!r}"


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_term("prd 1 to x\nin prd ?")
    assert exc.value.line == 2
    assert exc.value.col == 8


# ---------------------------------------------------------------------------
# printing


def test_print_value_forms():
    assert print_value(VarV("x")) == "x"
    assert print_value(NumV(-7)) == "-7"
    assert print_value(ThunkV(Prd(NumV(0)))) == "thunk { prd 0 }"


def test_print_parenthesizes_only_open_seq_lefts():
    assert print_term(fx.NESTED_SEQ) == "(a + b to y in prd y) to x in prd x"
    assert print_term(fx.ARITH_SEQ) == "1 + 2 to x in prd x"
    assert (
        print_term(Seq(Lam("x", Prd(VarV("x"))), "w", Prd(VarV("w"))))
        == "(\\x. prd x) to w in prd w"
    )
    assert (
        print_term(If0(VarV("v"), fx.ARITH_SEQ, Prd(NumV(0))))
        == "if0 v { 1 + 2 to x in prd x } { prd 0 }"
    )


def test_fixture_sources_are_canonical():
    for name, prog in fx.PROGRAMS.items():
        src = fx.SOURCES[name]
        assert parse_term(src) == prog, name
        assert print_term(prog) == src, name


@given(terms)
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t)) == t
