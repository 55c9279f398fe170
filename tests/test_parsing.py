from __future__ import annotations

import pytest

from semdiff.parsing import (ParseError, model_kind, parse_ad, parse_cd,
                             parse_model, parse_od, print_ad, print_cd,
                             print_od)

from conftest import fixture_text


# ------------------------------------------------------------- round trips

@pytest.mark.parametrize("name,parse,show", [
    ("cd_v1.cd", parse_cd, print_cd),
    ("cd_v2.cd", parse_cd, print_cd),
    ("om1.od", parse_od, print_od),
    ("om2.od", parse_od, print_od),
    ("empty.od", parse_od, print_od),
    ("ad_v1.ad", parse_ad, print_ad),
    ("ad_v2.ad", parse_ad, print_ad),
    ("ad_v3.ad", parse_ad, print_ad),
])
def test_print_parse_round_trip(name, parse, show):
    model = parse(fixture_text(name))
    printed = show(model)
    assert parse(printed) == model
    # printing is a fixpoint after one round
    assert show(parse(printed)) == printed


def test_parse_model_dispatches_on_leading_keyword():
    assert model_kind(fixture_text("cd_v1.cd")) == "cd"
    assert model_kind(fixture_text("om1.od")) == "od"
    assert model_kind(fixture_text("ad_v1.ad")) == "ad"
    cd = parse_model(fixture_text("cd_v1.cd"))
    assert cd == parse_cd(fixture_text("cd_v1.cd"))


@pytest.mark.parametrize("name,parse", [
    ("cd_v1.cd", parse_cd), ("om1.od", parse_od), ("ad_v3.ad", parse_ad)])
def test_parse_model_tokenizes_its_input_once(monkeypatch, name, parse):
    import semdiff.parsing as parsing
    calls = []

    def counting(text, source=None):
        calls.append(source)
        return tokenize(text, source)

    tokenize = parsing.tokenize
    monkeypatch.setattr(parsing, "tokenize", counting)
    model = parse_model(fixture_text(name), source=name)
    assert calls == [name]
    assert model == parse(fixture_text(name))


# ------------------------------------------------------------- diagnostics

def test_error_carries_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_cd("classdiagram x {\n  class ;\n}")
    assert exc.value.line == 2
    assert exc.value.col == 9
    assert "2:9" in str(exc.value)


def test_error_names_the_source_file_when_given():
    with pytest.raises(ParseError, match=r"thing\.cd:1:1"):
        parse_model("junk", source="thing.cd")


def test_extends_without_parent_is_rejected():
    with pytest.raises(ParseError, match="expected"):
        parse_cd("classdiagram x { class A extends; }")


def test_empty_multiplicity_is_a_parse_error_with_location():
    with pytest.raises(ParseError, match=r"1:41.*empty multiplicity"):
        parse_cd("classdiagram t { class A; association x [3..2] A -- A [1]; }")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError, match="expected end of input"):
        parse_cd("classdiagram x { } classdiagram y { }")


def test_guard_must_be_boolean():
    src = """activitydiagram t {
      input x : 0..3;
      initial i; decision d; action a; final f;
      edge i -> d;
      edge d -> a [x + 1];
      edge a -> f;
    }"""
    with pytest.raises(ParseError, match="boolean"):
        parse_ad(src)


def test_effects_on_a_node_that_is_not_an_action_are_rejected():
    with pytest.raises(ParseError, match=r"^1:49: only action nodes carry effects, found '\{'"):
        parse_ad("activitydiagram t { local y : 0..3 = 0; merge m { y := 1; }; }")


def test_an_effect_must_be_an_integer_expression():
    with pytest.raises(ParseError, match=r"^1:62: not an integer expression: y < 1, found ';'$"):
        parse_ad("activitydiagram t { local y : 0..3 = 0; action a { y := y < 1; }; }")


@pytest.mark.parametrize("digit", ["\u00b2", "\u2468", "\u1369", "\u2082"])
def test_a_digit_that_is_not_decimal_is_a_stray_character(digit):
    # superscript two, circled nine, Ethiopic one, subscript two
    for text, col in ((f"classdiagram t {{ class A; association r [{digit}] A -- A [1]; }}", 42),
                      (f"classdiagram t {{ class A; association r [1{digit}] A -- A [1]; }}", 43),
                      (f"activitydiagram t {{ input x : 0..{digit}; }}", 34),
                      (f"classdiagram t {{ class {digit}A; }}", 24)):
        with pytest.raises(ParseError, match=f"^1:{col}: stray character '{digit}'$"):
            parse_model(text)


def test_a_name_may_continue_with_any_digit():
    cd = parse_cd("classdiagram t { class A\u00b2; class _b\u0663; }")
    assert [c.name for c in cd.classes] == ["A\u00b2", "_b\u0663"]
    cd = parse_cd("classdiagram t { class A; association r [\u0663] A -- A [1]; }")
    assert cd.association("r").mult_a.lo == 3  # Arabic-Indic three is decimal


def test_end_of_input_after_a_closing_comment_is_where_the_comment_starts():
    with pytest.raises(ParseError, match=r"^2:3: expected '\}', found 'end of input'$"):
        parse_cd("classdiagram t {\n  // no closing brace")
    with pytest.raises(ParseError, match=r"^2:1: expected '\}', found 'end of input'$"):
        parse_cd("classdiagram t {\n")


# ------------------------------------------------------------- grammar bits

def test_cd_class_modifiers():
    cd = parse_cd("classdiagram t { class A abstract; class B extends A; }")
    decls = {c.name: c for c in cd.classes}
    assert decls["A"].abstract and decls["A"].parent is None
    assert not decls["B"].abstract and decls["B"].parent == "A"


def test_multiplicity_forms():
    cd = parse_cd("classdiagram t { class A;"
                  " association w [*] A -- A [2];"
                  " association x [1..*] A -- A [0..3]; }")
    w = cd.association("w")
    x = cd.association("x")
    assert (w.mult_a.lo, w.mult_a.hi) == (0, -1)
    assert (w.mult_b.lo, w.mult_b.hi) == (2, 2)
    assert (x.mult_a.lo, x.mult_a.hi) == (1, -1)
    assert (x.mult_b.lo, x.mult_b.hi) == (0, 3)
    assert str(w.mult_a) == "*" and str(x.mult_a) == "1..*"


def test_od_links_keep_position_order():
    om = parse_od("objectdiagram o { a : A; b : B; link m a -- b; }")
    (ln,) = om.links
    assert (ln.association, ln.obj_a, ln.obj_b) == ("m", "a", "b")


def test_ad_effects_and_guards_round_trip():
    # nested guards print with the parentheses they need, and no others
    for guard in ("x >= 8 && !(y == 2) || x < 1", "(x < 1 || x > 5) && x != 3",
                  "x < 1 || (x > 2 || x > 3)", "!!(x >= 1)"):
        src = f"""activitydiagram t {{
          input x : 0..15;
          local y : 0..3 = 1;
          initial i;
          action a {{ y := y + 1; }};
          decision d;
          final f;
          edge i -> a;
          edge a -> d;
          edge d -> f [{guard}];
        }}"""
        ad = parse_ad(src)
        assert f"[{guard}]" in print_ad(ad)
        assert parse_ad(print_ad(ad)) == ad


def test_comments_and_whitespace_are_ignored():
    om = parse_od("// heading\nobjectdiagram o {\n  // nothing here\n}\n")
    assert om.name == "o" and om.objects == ()


@pytest.mark.parametrize("decls,ranges", [
    ("input a : -2..3;", {"a": (-2, 3, None)}),
    ("input a : -5..-1;", {"a": (-5, -1, None)}),
    ("local c : -4..4 = -3;", {"c": (-4, 4, -3)}),
    ("input a : -5..-1; local c : -4..4 = -3;",
     {"a": (-5, -1, None), "c": (-4, 4, -3)}),
])
def test_negative_bounds_round_trip(decls, ranges):
    src = f"""activitydiagram t {{
      {decls}
      initial i;
      action a1;
      final f;
      edge i -> a1;
      edge a1 -> f;
    }}"""
    ad = parse_ad(src)
    assert {v.name: (v.lo, v.hi, v.init) for v in ad.variables()} == ranges
    printed = print_ad(ad)
    assert parse_ad(printed) == ad
    assert print_ad(parse_ad(printed)) == printed


def test_multiplicities_stay_unsigned():
    with pytest.raises(ParseError, match="expected integer"):
        parse_cd("classdiagram t { class A; association w [-1..2] A -- A [*]; }")
