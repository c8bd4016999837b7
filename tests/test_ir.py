"""Parser, renderer, validation and LOC statistics."""

from __future__ import annotations

import copy
import pickle
import random
import re
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import ir
from droidtriage.errors import InvalidBundleError, TriageError
from droidtriage.harness import read_bundle
from droidtriage.ir import (
    Assign,
    Invoke,
    LocDistribution,
    MethodSig,
    Return,
    _split_args,
    _strip,
    is_var_token,
    parse_bundle,
    parse_manifest,
    parse_program,
    parse_sig,
    validate,
)

from genprog import gen_program
from oracles import (
    defined_var,
    parse_program_cascade,
    parse_sig_regex,
    percentile_scan,
    render_manifest,
    render_program,
    split_args_scan,
    strip_scan,
    used_vars,
)

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


def _sig_outcome(parse, text):
    try:
        sig = parse(text)
    except ValueError as exc:
        return str(exc)
    return sig, sig.class_name, sig.method_name, sig.param_types, sig.return_type


_SIG_PIECES = ("a", "B", ".", "$", "_", "1", "(", ")", ",", " ", "\t", "\n", "->", "-", ">",
               "int", "é", "a.B.m", "(int, str)", "->void")


@given(st.lists(st.sampled_from(_SIG_PIECES), max_size=12).map("".join))
@settings(max_examples=500, deadline=None)
def test_sig_split_at_its_tail_matches_one_regex(text):
    assert _sig_outcome(parse_sig, text) == _sig_outcome(parse_sig_regex, text)


def test_method_sig_is_an_immutable_value():
    sig = MethodSig("a.B", "m", ("int",), "void")
    same = parse_sig(" a.B.m( int )->void")
    assert sig == same and not sig != same and hash(sig) == hash(same) and sig is not same
    assert str(sig) == "a.B.m(int)->void"
    assert repr(sig) == ("MethodSig(class_name='a.B', method_name='m', param_types=('int',), "
                         "return_type='void')")
    # the same rendering from other fields, a plain tuple of its fields and
    # rendering, its text
    for other in (MethodSig("a", "B.m", ("int",), "void"), MethodSig("a.B", "m", (), "void"),
                  ("a.B", "m", ("int",), "void", "a.B.m(int)->void"), str(sig)):
        assert sig != other and not sig == other and not other == sig, other
    assert {sig: 1}[same] == 1
    assert copy.deepcopy(sig) == sig == pickle.loads(pickle.dumps(sig))
    for field_name in ("class_name", "method_name", "param_types", "return_type", "other"):
        with pytest.raises(AttributeError):
            setattr(sig, field_name, "x")


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
    with pytest.raises(InvalidBundleError,
                       match=r"^a\.B\.m\(\)->void: branch target 99 does not exist$") as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"


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
    with pytest.raises(InvalidBundleError,
                       match=r"^duplicate method signature: a\.B\.m\(\)->void$") as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"


_MALFORMED = {
    "x = ": "unrecognized statement 'x ='",
    "call broken(": "unrecognized statement 'call broken('",
    "if goto 3": "unrecognized statement 'if goto 3'",
    "goto x": "unrecognized statement 'goto x'",
    "x = const": "bad assignment 'x = const'",
    "2x = const 1": "bad destination '2x'",
}


@pytest.mark.parametrize("stmt", list(_MALFORMED))
def test_malformed_statements(stmt):
    text = f"class a.B {{\n  method a.B.m()->void () {{\n    {stmt}\n  }}\n}}\n"
    with pytest.raises(InvalidBundleError) as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == f"line 3: {_MALFORMED[stmt]}"


def test_method_must_match_enclosing_class():
    text = "class a.B {\n  method a.C.m()->void () {\n    nop\n  }\n}\n"
    with pytest.raises(InvalidBundleError) as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == "line 2: method a.C.m()->void declared inside class a.B"


def test_duplicate_parameter_names_rejected():
    text = "class a.B {\n  method a.B.m(int,int)->void (x,x) {\n    nop\n  }\n}\n"
    with pytest.raises(InvalidBundleError) as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == "line 2: a.B.m(int,int)->void: duplicate parameter names"


def test_param_count_must_match_types():
    text = "class a.B {\n  method a.B.m(int,int)->void (x) {\n    nop\n  }\n}\n"
    with pytest.raises(InvalidBundleError) as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == "line 2: a.B.m(int,int)->void: 2 parameter types but 1 names"


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
    # the comments and the blank line take no position: three statements
    assert body == [Assign("x", literal="1"), Assign("s", literal='"has # inside"'),
                    Return("x")]


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
    with pytest.raises(InvalidBundleError) as exc:
        parse_manifest("package: a\ncomponent:Widget:a.B\n")
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == "line 2: unknown component kind 'Widget'"


@pytest.mark.parametrize("text", [
    "category: games\npermission:A\n",  # no package line
    "package:\ncategory: games\n",  # an empty one
    "package:   \n",  # a blank one
])
def test_manifest_without_package_rejected(text):
    # the one check for a package: recon and validation rely on it
    with pytest.raises(InvalidBundleError) as exc:
        parse_manifest(text)
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == "line 0: manifest missing package"


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


def test_use_before_def_names_each_position_of_a_shared_statement():
    bundle = parse_bundle("package: a\n", _in_method("y = z", "nop", "y = z"))
    body = bundle.program.methods()[0].body
    assert body[0] is body[2]
    assert [d.where for d in validate(bundle)] == ["a.B.m(int)->void:1", "a.B.m(int)->void:3"]


def test_duplicate_permission_diagnostic():
    bundle = parse_bundle("package: a\npermission:X\npermission:X\n", "")
    assert [d.code for d in validate(bundle)] == ["DuplicatePermission"]


def test_use_before_def_through_call_arguments():
    bundle = parse_bundle(
        "package: a\n",
        "class a.B {\n  method a.B.m(int)->void (p) {\n"
        '    call a.B.n(int,string,int,int)->void(1,"x y",null,p)\n'
        '    call a.B.n(int,string,int,int)->void(q,"x y",null,p)\n'
        "    call a.B.n(int,string,int,int)->void(1,\"x\",true,r)\n  }\n}\n",
    )
    assert [(d.where, d.message) for d in validate(bundle)] == [
        ("a.B.m(int)->void:2", "variable 'q' used before assignment"),
        ("a.B.m(int)->void:3", "variable 'r' used before assignment"),
    ]


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_parsed_invoke_uses_are_its_variable_arguments(seed):
    # the parser records each argument list's variables once: the arguments
    # that pass the token rule, in order
    text = gen_program(random.Random(seed), max_methods=6, max_lines=12)
    text += ('class z.Z {\n  method z.Z.f(int)->void (a) {\n'
             '    call z.Z.g(int,string,int,int)->void(a,"b,c",null,-4)\n  }\n}\n')
    calls = [s for m in parse_program(text).methods() for s in m.body if isinstance(s, Invoke)]
    for s in calls:
        assert s.uses == tuple(a for a in s.args if is_var_token(a))


def _assert_facts_match_reference(program) -> None:
    for m in program.methods():
        for stmt in m.body:
            assert stmt.uses == used_vars(stmt), stmt
            assert stmt.dst == defined_var(stmt), stmt


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_statement_facts_match_reference(seed):
    # the parser's statements, then the same statements rebuilt field by field
    program = parse_program(gen_program(random.Random(seed), max_methods=6, max_lines=12))
    _assert_facts_match_reference(program)
    for m in program.methods():
        m.body = [type(s)(*(getattr(s, f.name) for f in fields(s) if f.init))
                  for s in m.body]
    _assert_facts_match_reference(program)


def test_fixture_statement_facts_match_reference():
    for d in sorted(FIXTURES.iterdir()):
        if d.is_dir():
            _assert_facts_match_reference(fixture_bundle(d.name).program)


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
    program = _program_with_locs([10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    dist = LocDistribution([len(m.body) for m in program.methods()])
    assert dist.percentile(80) == 80
    assert dist.percentile(100) == 100


def test_percentile_single_method():
    dist = LocDistribution([len(m.body) for m in _program_with_locs([7]).methods()])
    assert dist.percentile(50) == 7
    assert dist.percentile(100) == 7


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


# -- the statement dispatch against the regex cascade ----------------------


def _outcome(parse, text):
    """A parse's rendering and program, or its error's type and text, which
    names the line.  Programs compare field by field, down to every statement
    and `MethodSig`."""
    try:
        program = parse(text)
    except TriageError as exc:
        return type(exc), str(exc)
    return render_program(program), program


def _assert_same_parse(text):
    assert _outcome(parse_program, text) == _outcome(parse_program_cascade, text)


def _in_method(*stmts: str) -> str:
    body = "".join(f"    {s}\n" for s in stmts)
    return f"class a.B {{\n  method a.B.m(int)->void (p) {{\n{body}  }}\n}}\n"


@pytest.mark.parametrize("stmt", ["goto " + "1" * 5000, "if p goto " + "9" * 5000],
                         ids=["goto", "if"])
def test_branch_target_past_int_digit_limit_is_syntax_error(stmt):
    # `int` refuses a string of more than 4,300 digits with a ValueError
    text = _in_method("nop", stmt)
    with pytest.raises(InvalidBundleError) as exc:
        parse_program(text)
    assert exc.value.kind == "bundle-invalid"
    assert str(exc.value) == "line 4: branch target of 5000 digits"
    _assert_same_parse(text)


@pytest.mark.parametrize(
    "stmt",
    [
        "x=call a.B.m(int)->void(p)", "x =const 1", "x= const 1", "return", "return p",
        "x = p", "x=p", "nop", "goto 1", "if p goto 1", "call a.B.m( int , int )->v(p, 2)",
        "call = const 1", "if = p", "goto = p", "return = p", "nop = p", "const = 1",
        "x = callme", "x = call", "x = const", "x = constant", "x = const1 2", "x == p",
        "x = call(p)", "callx a.B.m()->v()", "returnx", "return p q", "nopx", "ifx goto 1",
        "if p goto x", "goto", "x = call foo()->v()", "x = call a.B.m()->v(1x)",
        'x = const "a#b"', 'x = const "open', 'call a.B.m()->v("a,b", p)', "2x = const 1",
        "x = const -7", "x = const true", "true = p", "x = null", "x = const 1",
        "é = p", "x = é", "goto ١", "x = call a.B.m()->v(p)(q)",
        # a later line reuses what an earlier one checked
        "call a.B.m()->v(1)\ncall a.B.m()->v(1x)", "call a.B.m()->v(p,1)\ncall a.B.m()->v(p,1)",
        "x = p\ncall a.B.m()->v(x)\n1x = call a.B.m()->v(x)",
        "call a.B.m()->v(p)\ncall a.b.m()->v(p)\ncall a.B.m()->v( p )",
    ],
)
def test_statement_forms_match_cascade(stmt):
    _assert_same_parse(_in_method(*stmt.split("\n")))


def test_repeated_statement_text_is_one_object():
    fold = "c = call app.Mix.fold(string,string)->string(k,c)"
    body = parse_program(_in_method(*[fold, f"  {fold}  # spacing and a comment"] * 1000)
                         ).methods()[0].body
    assert len(body) == 2000
    assert all(s is body[0] for s in body)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_statement_objects_at_most_distinct_texts(seed):
    text = gen_program(random.Random(seed), max_methods=12, max_lines=30)
    body = [s for m in parse_program(text).methods() for s in m.body]
    texts = {line.strip() for line in text.splitlines() if line.startswith("    ")}
    assert len({id(s) for s in body}) <= len(texts)


_RESERVED_WORDS = ("call", "const", "goto", "if", "return", "nop", "true", "false", "null")
_MUTATION = st.one_of(
    st.tuples(st.just("respace_eq"), st.sampled_from(["", " ", "  ", "\t"])),
    st.tuples(st.just("respace_all"), st.sampled_from(["", " ", "  ", "\t"])),
    st.tuples(st.just("insert"), st.sampled_from(
        ['#', '"', '=', ',', '(', ')', ' ', '->', 'call ', 'const ', '1x', '-', '$'])),
    st.tuples(st.just("word"), st.sampled_from(_RESERVED_WORDS + ("1x", "a-b", '"s"', "0", "v1"))),
    st.tuples(st.just("target"), st.sampled_from(["0", "-1", "999", "1", "x"])),
    st.tuples(st.just("dup"), st.just("")),
    st.tuples(st.just("drop"), st.just("")),
)


def _mutate(lines: list[str], where: int, kind: str, payload: str) -> None:
    i = where % len(lines)
    line = lines[i]
    if kind == "respace_eq":
        lines[i] = re.sub(r"\s*=\s*", payload + "=" + payload, line)
    elif kind == "respace_all":
        lines[i] = re.sub(r"(?<=\S) +", payload, line)
    elif kind == "insert":
        pos = where % (len(line) + 1)
        lines[i] = line[:pos] + payload + line[pos:]
    elif kind == "word":
        words = list(re.finditer(r"\w+", line))
        if words:
            w = words[where % len(words)]
            lines[i] = line[: w.start()] + payload + line[w.end():]
    elif kind == "target":
        lines[i] = re.sub(r"\d+$", payload, line) if "goto" in line else f"    goto {payload}"
    elif kind == "dup":
        heads = [j for j, l in enumerate(lines) if l.lstrip().startswith("method")]
        if heads:
            h = heads[where % len(heads)]
            end = next((j for j in range(h, len(lines)) if lines[j] == "  }"), h)
            lines[end + 1:end + 1] = lines[h:end + 1]
    else:
        del lines[i]


@given(st.integers(0, 10_000), st.lists(st.tuples(st.integers(0, 10**6), _MUTATION), max_size=4))
@settings(max_examples=400, deadline=None)
def test_parse_matches_cascade_on_mutated_programs(seed, mutations):
    lines = gen_program(random.Random(seed), max_methods=5, max_lines=10).splitlines()
    for where, (kind, payload) in mutations:
        if lines:
            _mutate(lines, where, kind, payload)
    _assert_same_parse("\n".join(lines) + "\n")


def test_parse_pays_once_per_distinct_text(monkeypatch):
    # counts, does not time: each distinct statement text, signature tail and
    # parameter list is parsed once, and branch targets are scanned only in a
    # method shorter than the highest target parsed so far
    parsed = {"stmt": Counter(), "tail": Counter(), "params": Counter()}
    scanned: list[str] = []

    def counting(kind, parse, key):
        def wrapper(*args):
            parsed[kind][args[key]] += 1
            return parse(*args)
        return wrapper

    monkeypatch.setattr(ir._Parse, "stmt", counting("stmt", ir._Parse.stmt, 1))
    monkeypatch.setattr(ir, "_parse_tail", counting("tail", ir._parse_tail, 0))
    monkeypatch.setattr(ir, "_parse_params", counting("params", ir._parse_params, 0))
    check = ir._check_branch_targets
    monkeypatch.setattr(ir, "_check_branch_targets",
                        lambda m: (scanned.append(str(m.signature)), check(m)))

    call = "x = call t.A.f0(string,int)->void(p,1)"
    long = [call, "if p goto 5", "nop  # pad", "goto 6", 'y = const "a#b"', "return p"]
    short = [f"{call}  # the same call", "  return   p"]
    text = "class t.A {\n"
    for i in range(60):
        head = f"t.A.f{i}(string,int)->void (p,q)" if i % 2 else f"t.A.f{i}(string)->string (p)"
        body = long if i % 3 else short
        text += f"  method {head} {{\n" + "".join(f"    {s}\n" for s in body) + "  }\n"
    program = parse_program(text + "}\n")

    assert len(program.methods()) == 60
    assert parsed["stmt"] == Counter({call: 1, "if p goto 5": 1, "nop": 1, "goto 6": 1,
                                      'y = const "a#b"': 1, "return p": 1, "return   p": 1})
    assert parsed["tail"] == Counter({"(string,int)->void": 1, "(string)->string": 1})
    assert parsed["params"] == Counter({"p,q": 1, "p": 1})
    # f0 is short too, but comes before any branch
    assert scanned == [str(m.signature) for m in program.methods()[3::3]]
    _assert_same_parse(text + "}\n")


_LATE_KINDS = ("unqualify", "params", "jump", "comment")
_LATE_MUTATION = st.one_of(
    st.tuples(st.just("unqualify"), st.sampled_from(["method ", "call "])),
    st.tuples(st.just("params"), st.sampled_from(["", "p0", "p0,p1", "p0,p1,p2", "p0,p0"])),
    st.tuples(st.just("jump"), st.just("")),
    st.tuples(st.just("comment"), st.sampled_from(["  # c", '  # "', "# a comment", "}  # end"])),
)


def _mutate_late(lines: list[str], start: int, where: int, kind: str, payload: str) -> None:
    """Rewrite a line at or after `start` so that it reuses what an earlier
    method's header or statement already had parsed."""
    body = [i for i in range(start, len(lines)) if lines[i].startswith("    ")]
    heads = [i for i in range(start, len(lines)) if lines[i].startswith("  method ")]
    if kind == "unqualify":  # a cached tail after a name with no class
        named = [i for i in range(start, len(lines)) if payload + "g.C" in lines[i]]
        if named:
            i = named[where % len(named)]
            lines[i] = re.sub(payload + r"g\.C\d+\.", payload, lines[i], count=1)
    elif kind == "params" and heads:  # a cached parameter list on another tail
        i = heads[where % len(heads)]
        lines[i] = re.sub(r"\(([^()]*)\) \{$", f"({payload}) {{", lines[i])
    elif kind == "jump" and body:  # the earlier jump with the highest target
        jumps = [line for line in lines[:start] if "goto" in line]
        if jumps:
            lines[body[where % len(body)]] = max(jumps, key=lambda l: int(l.rsplit(" ", 1)[1]))
    elif kind == "comment" and body:
        i = body[where % len(body)]
        if payload.startswith("#"):
            lines.insert(i, payload)
        elif payload.startswith("}"):
            ends = [j for j in range(start, len(lines)) if lines[j] == "  }"]
            if ends:
                lines[ends[where % len(ends)]] = "  " + payload
        else:
            lines[i] += payload


@given(st.integers(0, 10_000),
       st.lists(st.tuples(st.integers(0, 10**6), _LATE_MUTATION | _MUTATION), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_parse_matches_cascade_across_shared_methods(seed, mutations):
    # many methods sharing tails, parameter lists and jump texts, with every
    # mutation in the second half, after the tables hold the first half's texts
    lines = gen_program(random.Random(seed), max_methods=40, max_lines=8, min_methods=20).splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("  method ")]
    start = heads[len(heads) // 2]
    for where, (kind, payload) in mutations:
        if kind in _LATE_KINDS:
            _mutate_late(lines, start, where, kind, payload)
        elif len(lines) > start:
            late = lines[start:]
            _mutate(late, where, kind, payload)
            lines[start:] = late
    _assert_same_parse("\n".join(lines) + "\n")


def test_statements_share_one_signature_per_callee_text():
    text = gen_program(random.Random(5), max_methods=8, max_lines=20)
    text += "class z.Z {\n  method z.Z.f(int,int)->void (a,b) {\n"
    text += "    call g.C0.m0(int, int)->x(a,b)\n    call g.C0.m0(int,int)->x(b,a)\n  }\n}\n"
    program = parse_program(text)
    by_text: dict[str, MethodSig] = {str(m.signature): m.signature for m in program.methods()}
    calls = [s for m in program.methods() for s in m.body if isinstance(s, Invoke)]
    assert len({str(s.callee) for s in calls}) < len(calls)
    for s in calls:
        assert by_text.setdefault(str(s.callee), s.callee) is s.callee
    # a signature parsed anew (a model-supplied argument) equals and hashes
    # like the shared one
    for sig in by_text.values():
        fresh = parse_sig(str(sig))
        assert fresh is not sig and fresh == sig and hash(fresh) == hash(sig)
    for m in program.methods():
        assert program.method_map[parse_sig(str(m.signature))] is m


# -- the bundle boundary ----------------------------------------------------
# A bundle is written by the attacker: whatever its text or bytes, parsing it
# may only raise a bundle error, which the batch records as a skip of its kind.

_IR_WORDS = ("class ", "method ", " extends ", " {", "}", "\n", "=", " = ", "call ", "const ",
             "goto ", "if ", "return", "nop", "a.B.c(int)->void", "(", ")", "->", ",", '"', "#",
             "x", "1", "-", "null", "99999999999999999999", "١", "\x00", "\r", " ", "\ud800")
_MMF_WORDS = ("package", "category", "description", "permission", "component", ":", " ",
              "\n", "#", "Activity", "Receiver", "a.B", "action=", "exported", "=")


def _texts(words: tuple[str, ...]):
    return st.text() | st.lists(st.sampled_from(words) | st.text(max_size=4), max_size=60).map("".join)


@st.composite
def _ir_texts(draw):
    """Arbitrary text, or a generated program with a few spans overwritten,
    so that some inputs reach every statement form."""
    if draw(st.booleans()):
        return draw(_texts(_IR_WORDS))
    text = gen_program(random.Random(draw(st.integers(0, 10_000))), max_methods=3, max_lines=8)
    for _ in range(draw(st.integers(1, 4))):
        words = [m.span() for m in re.finditer(r"\w+", text)]
        if words and draw(st.booleans()):  # overwrite a word
            pos, end = words[draw(st.integers(0, len(words) - 1))]
        else:
            pos = draw(st.integers(0, len(text)))
            end = pos + draw(st.integers(0, 6))
        text = text[:pos] + draw(st.sampled_from(_IR_WORDS) | st.text(max_size=4)) + text[end:]
    return text


@given(_texts(_MMF_WORDS), _ir_texts())
@settings(max_examples=300, deadline=None)
def test_parse_bundle_raises_only_triage_errors(manifest_text, ir_text):
    for mmf in (manifest_text, "package: p\n"):
        try:
            parse_bundle(mmf, ir_text)
        except TriageError as exc:
            assert exc.kind == "bundle-invalid", exc


@given(st.binary(max_size=300) | _texts(_MMF_WORDS).map(lambda t: t.encode("utf-8", "surrogatepass")),
       st.binary(max_size=300) | _ir_texts().map(lambda t: t.encode("utf-8", "surrogatepass")))
@settings(max_examples=150, deadline=None)
def test_read_bundle_raises_only_triage_errors(manifest_bytes, ir_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        mmf, mir = Path(tmp) / "app.mmf", Path(tmp) / "app.mir"
        mmf.write_bytes(manifest_bytes)
        mir.write_bytes(ir_bytes)
        try:
            read_bundle(mmf, mir)
        except TriageError as exc:
            assert exc.kind in ("bundle-invalid", "bundle-unreadable"), exc
