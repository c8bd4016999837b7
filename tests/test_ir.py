"""Parser, renderer, validation and LOC statistics."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage.errors import (
    BadBranchTargetError,
    DuplicateSignatureError,
    EmptyProgramError,
    IrSyntaxError,
)
from droidtriage.ir import (
    LocDistribution,
    _split_args,
    _strip,
    loc_stats,
    parse_bundle,
    parse_manifest,
    parse_program,
    parse_sig,
    render_manifest,
    render_program,
    validate,
)

from genprog import gen_program
from oracles import percentile_scan, split_args_scan, strip_scan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_bundle(app_id: str):
    d = FIXTURES / app_id
    return parse_bundle(
        (d / "app.mmf").read_text(), (d / "app.mir").read_text(), app_id=app_id
    )


# -- signatures -------------------------------------------------------------


def test_sig_roundtrip():
    text = "com.app.Main.onCreate(bundle,int)->void"
    assert str(parse_sig(text)) == text


def test_sig_nested_class_and_empty_params():
    sig = parse_sig("android.content.SharedPreferences.Editor.apply()->void")
    assert sig.class_name == "android.content.SharedPreferences.Editor"
    assert sig.method_name == "apply"
    assert sig.param_types == ()


@pytest.mark.parametrize("bad", ["noparens", "a.b(->c", "x(y)->", "(x)->y"])
def test_sig_malformed(bad):
    with pytest.raises(ValueError):
        parse_sig(bad)


# -- parsing ----------------------------------------------------------------


def test_empty_program_with_minimal_manifest():
    bundle = parse_bundle("package: a\n", "")
    assert bundle.app_id == "a"
    assert len(bundle.program.classes) == 0
    assert validate(bundle) == []


def test_fixture_smsleak_shape():
    # counted by hand from the committed fixture: 3 classes, 7 methods
    bundle = fixture_bundle("fx_smsleak")
    assert len(bundle.program.classes) == 3
    assert len(bundle.program.methods()) == 7
    assert validate(bundle) == []


def test_goto_out_of_range_is_bad_branch_target():
    text = """
class a.B {
  method a.B.m()->void () {
    nop
    nop
    nop
    nop
    goto 99
  }
}
"""
    with pytest.raises(BadBranchTargetError) as exc:
        parse_program(text)
    assert exc.value.target == 99


def test_duplicate_signature_rejected():
    text = """
class a.B {
  method a.B.m()->void () {
    nop
  }
  method a.B.m()->void () {
    nop
  }
}
"""
    with pytest.raises(DuplicateSignatureError):
        parse_program(text)


@pytest.mark.parametrize(
    "stmt",
    ["x = ", "call broken(", "if goto 3", "goto x", "x = const", "2x = const 1"],
)
def test_malformed_statements(stmt):
    text = f"class a.B {{\n  method a.B.m()->void () {{\n    {stmt}\n  }}\n}}\n"
    with pytest.raises(IrSyntaxError):
        parse_program(text)


def test_method_must_match_enclosing_class():
    text = "class a.B {\n  method a.C.m()->void () {\n    nop\n  }\n}\n"
    with pytest.raises(IrSyntaxError):
        parse_program(text)


def test_duplicate_parameter_names_rejected():
    text = "class a.B {\n  method a.B.m(int,int)->void (x,x) {\n    nop\n  }\n}\n"
    with pytest.raises(IrSyntaxError):
        parse_program(text)


def test_param_count_must_match_types():
    text = "class a.B {\n  method a.B.m(int,int)->void (x) {\n    nop\n  }\n}\n"
    with pytest.raises(IrSyntaxError):
        parse_program(text)


def test_comments_and_blank_lines_ignored():
    text = """
# header comment
class a.B {
  method a.B.m()->void () {
    x = const 1   # trailing comment
    s = const "has # inside"

    return x
  }
}
"""
    program = parse_program(text)
    body = program.methods()[0].body
    assert [s.line for s in body] == [1, 2, 3]
    assert body[1].literal == '"has # inside"'


def test_manifest_parse_and_components():
    m = parse_manifest(
        "package: p.q\ncategory: games\ndescription: fun: with colons\n"
        "permission:A\npermission:B\n"
        "component:Receiver:p.q.R:action=BOOT:action=SMS:exported\n"
    )
    assert m.description == "fun: with colons"
    assert m.permissions == ["A", "B"]
    comp = m.components[0]
    assert comp.kind == "Receiver"
    assert comp.intent_actions == ("BOOT", "SMS")
    assert comp.exported


def test_manifest_bad_component_kind():
    with pytest.raises(IrSyntaxError):
        parse_manifest("package: a\ncomponent:Widget:a.B\n")


# -- validation -------------------------------------------------------------


def test_unresolved_component_diagnostic():
    bundle = parse_bundle(
        "package: a\ncomponent:Activity:a.Missing\n",
        "class a.B {\n  method a.B.m()->void () {\n    nop\n  }\n}\n",
    )
    assert [d.code for d in validate(bundle)] == ["UnresolvedComponent"]


def test_use_before_def_diagnostic():
    bundle = parse_bundle(
        "package: a\n",
        "class a.B {\n  method a.B.m()->void () {\n    y = x\n  }\n}\n",
    )
    assert [d.code for d in validate(bundle)] == ["UseBeforeDef"]


def test_duplicate_permission_diagnostic():
    bundle = parse_bundle("package: a\npermission:X\npermission:X\n", "")
    assert [d.code for d in validate(bundle)] == ["DuplicatePermission"]


def test_all_fixtures_validate_clean():
    for d in sorted(FIXTURES.iterdir()):
        if d.is_dir():
            assert validate(fixture_bundle(d.name)) == [], d.name


def test_validate_does_not_mutate_bundle():
    bundle = parse_bundle(
        "package: a\npermission:X\npermission:X\ncomponent:Activity:a.Missing\n",
        "class a.B {\n  method a.B.m()->void () {\n    y = x\n  }\n}\n",
    )
    before = (render_manifest(bundle.manifest), render_program(bundle.program))
    validate(bundle)
    after = (render_manifest(bundle.manifest), render_program(bundle.program))
    assert before == after


# -- round trip -------------------------------------------------------------


def test_render_parse_identity_on_fixtures():
    for d in sorted(FIXTURES.iterdir()):
        if not d.is_dir():
            continue
        bundle = fixture_bundle(d.name)
        ir_text = render_program(bundle.program)
        assert render_program(parse_program(ir_text)) == ir_text
        mmf_text = render_manifest(bundle.manifest)
        assert render_manifest(parse_manifest(mmf_text)) == mmf_text


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generated_programs_roundtrip_and_validate(seed):
    rng = random.Random(seed)
    text = gen_program(rng, max_methods=6, max_lines=12)
    program = parse_program(text)
    assert render_program(program) == text
    bundle = parse_bundle("package: gen\n", text)
    assert validate(bundle) == []


def test_whitespace_normalizes_to_canonical_form():
    messy = "class a.B {\n  method a.B.m(int)->void ( x ) {\n    y   =    x\n      nop\n  }\n}\n"
    canonical = render_program(parse_program(messy))
    assert render_program(parse_program(canonical)) == canonical
    assert "y = x" in canonical


# -- LOC stats --------------------------------------------------------------


def _program_with_locs(locs):
    chunks = ["class z.C {"]
    for i, n in enumerate(locs):
        chunks.append(f"  method z.C.f{i}()->void () {{")
        chunks.extend(["    nop"] * n)
        chunks.append("  }")
    chunks.append("}")
    return parse_program("\n".join(chunks) + "\n")


def test_percentile_decile_example():
    dist = loc_stats(_program_with_locs([10, 20, 30, 40, 50, 60, 70, 80, 90, 100]))
    assert dist.percentile(80) == 80
    assert dist.percentile(100) == 100


def test_percentile_single_method():
    dist = loc_stats(_program_with_locs([7]))
    assert dist.percentile(50) == 7
    assert dist.percentile(100) == 7


def test_loc_stats_empty_program():
    with pytest.raises(EmptyProgramError):
        loc_stats(parse_program(""))


def test_percentile_monotone_and_max():
    dist = LocDistribution([5, 1, 9, 9, 2, 14])
    values = [dist.percentile(p) for p in range(0, 101, 5)]
    assert values == sorted(values)
    assert dist.percentile(100) == 14


@given(st.lists(st.integers(1, 500), min_size=1, max_size=10_000),
       st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_percentile_matches_counting_oracle(values, p):
    assert LocDistribution(values).percentile(p) == percentile_scan(values, p)


def test_histogram_buckets_cover_all_methods():
    dist = LocDistribution([1, 10, 11, 31, 51, 200])
    histogram = dist.histogram()
    assert sum(n for _label, n in histogram) == 6


@given(st.text(alphabet='a #",', max_size=40))
@settings(max_examples=500, deadline=None)
def test_strip_matches_character_scan(raw):
    assert _strip(raw) == strip_scan(raw)


@given(st.text(alphabet='a ",b1', max_size=40))
@settings(max_examples=500, deadline=None)
def test_split_args_matches_character_scan(text):
    assert _split_args(text) == split_args_scan(text)
