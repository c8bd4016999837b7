"""The catalog's keyed lookup against a linear scan over its patterns."""

from __future__ import annotations

import random

import pytest

from droidtriage.catalog import SINK_CATEGORIES, ApiCatalog, EntryCatalog
from droidtriage.config import _builtin
from droidtriage.errors import ConfigError
from droidtriage.ir import MethodSig, parse_manifest, parse_sig

from genprog import SYNTH_CATALOG_TEXT
from oracles import PatternScan

SHIPPED_TEXT = _builtin("system_apis.cat")


def _pattern_texts(text: str) -> list[str]:
    """Every pattern of a catalog as written."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            kind, rest = line.split(":", 1)
            pattern = {"sink": rest.split(":", 1)[-1], "perm": rest.split("->", 1)[-1]}.get(kind, rest)
            out.append(pattern.strip())
    return out


def _pattern_sigs(text: str) -> list[MethodSig]:
    """Every exact signature in a catalog, plus one method of each prefix stem."""
    out = []
    for pattern in _pattern_texts(text):
        if pattern.endswith(".*"):
            out.append(MethodSig(pattern[:-2], "m", (), "void"))
        else:
            out.append(parse_sig(pattern))
    return out


def _random_sigs(rng: random.Random, stems: list[str], n: int) -> list[MethodSig]:
    """Class names built from catalog stems, their parents and near misses."""
    parts = sorted({p for stem in stems for p in stem.split(".")})
    out = []
    for _ in range(n):
        base = rng.choice(stems + parts)
        cls = rng.choice([
            base,
            base + "." + rng.choice(parts),
            base.rsplit(".", 1)[0],
            base + rng.choice(["X", "s", "_"]),
            rng.choice(parts) + "." + base,
        ])
        out.append(MethodSig(cls, rng.choice(["m", "send", "query", "getString"]),
                             tuple(rng.choice(["string", "int"]) for _ in range(rng.randint(0, 2))),
                             rng.choice(["void", "string", "cursor"])))
    return out


@pytest.mark.parametrize("text", [SHIPPED_TEXT, SYNTH_CATALOG_TEXT], ids=["shipped", "synth"])
def test_lookup_equals_pattern_scan(text):
    catalog, scan = ApiCatalog.parse(text), PatternScan(text)
    exact = _pattern_sigs(text)
    stems = sorted({s.class_name for s in exact})
    sigs = exact + _random_sigs(random.Random(5), stems, 2000)
    for sig in sigs:
        assert catalog.is_system(sig) == scan.is_system(sig), sig
        assert catalog.sink_category(sig) == scan.sink_category(sig), sig
        assert catalog.permissions_of(sig) == scan.permissions_of(sig), sig
    # the generated set reaches every kind of answer
    assert any(catalog.is_system(s) for s in sigs) and not all(catalog.is_system(s) for s in sigs)
    assert any(catalog.permissions_of(s) for s in sigs) or "perm:" not in text


def test_prefix_matches_whole_class_segments_only():
    text = "api:android.tele.*\nperm:P->android.tele.*\n"
    catalog, scan = ApiCatalog.parse(text), PatternScan(text)
    for cls, want in (("android.telephony.X", False), ("android.tele", True),
                      ("android.tele.X", True), ("android.tele.x.Y", True), ("android", False)):
        sig = MethodSig(cls, "m", (), "void")
        assert catalog.is_system(sig) is want is scan.is_system(sig), cls
        assert (catalog.permissions_of(sig) == {"P"}) is want, cls


def test_sink_listed_twice_gets_first_category():
    sig = "a.B.m(string)->void"
    for later, earlier in (("storage", "network"), ("telephony", "storage")):
        # the later category is listed first, by exact text and by prefix
        for text in (f"sink:{later}:{sig}\nsink:{earlier}:{sig}\n",
                     f"sink:{later}:{sig}\nsink:{earlier}:a.*\n"):
            assert ApiCatalog.parse(text).sink_category(parse_sig(sig)) == earlier
            assert PatternScan(text).sink_category(parse_sig(sig)) == earlier
    assert SINK_CATEGORIES.index("network") < SINK_CATEGORIES.index("storage")


def test_source_lines_are_system_apis():
    catalog = ApiCatalog.parse("source:a.B.read()->string\n")
    assert catalog.is_system(parse_sig("a.B.read()->string"))
    assert catalog.sink_category(parse_sig("a.B.read()->string")) is None


def test_bad_pattern_rejected():
    with pytest.raises(ConfigError):
        ApiCatalog.parse("api:a.B\n")


def test_signature_pattern_spacing_does_not_matter():
    text = ("sink:network:a.B.send(string, int)->void\n"
            "perm:P-> a.B.read( )->string\nsource:a.B.read( )->string\n")
    catalog, scan = ApiCatalog.parse(text), PatternScan(text)
    send, read = parse_sig("a.B.send(string,int)->void"), parse_sig("a.B.read()->string")
    assert set(catalog.patterns) == {str(send), str(read)}
    for sig in (send, read):
        assert catalog.is_system(sig) and scan.is_system(sig)
        assert catalog.sink_category(sig) == scan.sink_category(sig)
        assert catalog.permissions_of(sig) == scan.permissions_of(sig)
    assert catalog.sink_category(send) == "network" and catalog.permissions_of(read) == {"P"}


@pytest.mark.parametrize("line", ["api:foo(", "sink:storage:a.B.m(int", "perm:P->nodot()->void"])
def test_malformed_signature_pattern_names_its_line(line):
    with pytest.raises(ConfigError, match=r"^catalog line 2: (malformed signature|signature "
                                          r"missing class qualifier)"):
        ApiCatalog.parse("api:a.B.*\n" + line + "\n")


def test_shipped_pattern_keys_are_their_texts():
    assert set(ApiCatalog.parse(SHIPPED_TEXT).patterns) == set(_pattern_texts(SHIPPED_TEXT))


def test_bound_entry_catalog_shares_the_rules():
    rules = EntryCatalog.parse("user:onClick\nsystem:onReceive@Receiver\nlifecycle:onCreate\n")
    bound = rules.bound(parse_manifest("package: t\ncomponent:Receiver:t.Boot\n"))
    assert bound.user is rules.user and bound.system is rules.system
    assert bound.lifecycle is rules.lifecycle
    assert rules.component_kinds == {}
    on_receive = parse_sig("t.Boot.onReceive()->void")
    assert bound.classify(on_receive) == "SystemEvent"
    assert rules.classify(on_receive) is None
