"""System-API and entry-point catalogs.

Both catalogs are plain-text config shipped with the package and replaceable
at run time, so coverage can grow without code changes.

`.cat` lines:  api:<sig-or-prefix> | source:<sig> | sink:<category>:<sig>
               | perm:<PERMISSION>-><sig-or-prefix>
               (`source:` marks a system API, as `api:` does)
`.epc` lines:  user:<method-name> | system:<method-name>@<component-kind>
               | lifecycle:<method-name>
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .ir import COMPONENT_KINDS, Manifest, MethodSig, parse_sig

SINK_CATEGORIES = ("network", "storage", "telephony")


def _rules(text: str) -> Iterator[tuple[int, str]]:
    """(line number, rule) for each catalog line left non-blank once its comment is cut."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            yield line_no, line


@dataclass
class _Entry:
    """What the catalog lines say about one pattern."""

    system: bool = False
    sinks: set[str] = field(default_factory=set)
    permissions: set[str] = field(default_factory=set)


@dataclass
class ApiCatalog:
    """The system-API surface the pipeline treats as sensitive.

    A pattern is an exact canonical signature, or a class-prefix wildcard
    `stem.*` matching the classes `stem` and `stem.<more>`.  A prefix is
    keyed by its text and a signature by its rendering, so every question
    about a signature is one lookup: its own rendering, then `<prefix>.*` for
    its class name and each dotted prefix of it.
    """

    patterns: dict[str, _Entry] = field(default_factory=dict)

    def _lookup(self, sig: MethodSig) -> list[_Entry]:
        cls = sig.class_name
        keys = [str(sig), cls + ".*"]
        dot = cls.find(".")
        while dot != -1:
            keys.append(cls[:dot] + ".*")
            dot = cls.find(".", dot + 1)
        return [self.patterns[k] for k in keys if k in self.patterns]

    def is_system(self, sig: MethodSig) -> bool:
        return any(e.system for e in self._lookup(sig))

    def sink_category(self, sig: MethodSig) -> str | None:
        found = {c for e in self._lookup(sig) for c in e.sinks}
        return next((c for c in SINK_CATEGORIES if c in found), None)

    def permissions_of(self, sig: MethodSig) -> set[str]:
        """Permissions whose API families include the signature."""
        return {p for e in self._lookup(sig) for p in e.permissions}

    @classmethod
    def parse(cls, text: str) -> "ApiCatalog":
        cat = cls()
        for line_no, line in _rules(text):
            if line.startswith(("api:", "source:")):
                cat._entry(line.split(":", 1)[1], line_no).system = True
            elif line.startswith("sink:"):
                rest = line[5:]
                if ":" not in rest:
                    raise ConfigError(f"catalog line {line_no}: sink needs category")
                category, sig_text = rest.split(":", 1)
                category = category.strip()
                if category not in SINK_CATEGORIES:
                    raise ConfigError(f"catalog line {line_no}: unknown sink category {category!r}")
                entry = cat._entry(sig_text, line_no)
                entry.system = True
                entry.sinks.add(category)
            elif line.startswith("perm:"):
                rest = line[5:]
                if "->" not in rest:
                    raise ConfigError(f"catalog line {line_no}: perm needs '->'")
                perm, pat_text = rest.split("->", 1)
                cat._entry(pat_text, line_no).permissions.add(perm.strip())
            else:
                raise ConfigError(f"catalog line {line_no}: unknown entry {line!r}")
        return cat

    def _entry(self, text: str, line_no: int) -> _Entry:
        text = text.strip()
        if not text.endswith(".*"):
            if "(" not in text:
                raise ConfigError(
                    f"catalog line {line_no}: {text!r} is neither a signature nor a class prefix"
                )
            try:  # keyed by its rendering, which is what a lookup asks for
                text = str(parse_sig(text))
            except ValueError as exc:
                raise ConfigError(f"catalog line {line_no}: {exc}") from None
        return self.patterns.setdefault(text, _Entry())


@dataclass
class EntryCatalog:
    """Classifies methods as app entry points.

    System-event rules are conditional on the method's class being declared
    in the manifest as a component of the stated kind; binding a manifest
    fills in that component map and shares the rules, which `parse` fixes.
    """

    user: set[str] = field(default_factory=set)
    system: dict[str, set[str]] = field(default_factory=dict)  # method -> kinds
    lifecycle: set[str] = field(default_factory=set)
    component_kinds: dict[str, set[str]] = field(default_factory=dict)  # class -> kinds

    @classmethod
    def parse(cls, text: str) -> "EntryCatalog":
        cat = cls()
        for line_no, line in _rules(text):
            if line.startswith("user:"):
                cat.user.add(line[5:].strip())
            elif line.startswith("system:"):
                rest = line[7:]
                if "@" not in rest:
                    raise ConfigError(f"entry catalog line {line_no}: system rule needs '@kind'")
                name, kind = rest.split("@", 1)
                kind = kind.strip()
                if kind not in COMPONENT_KINDS:
                    raise ConfigError(f"entry catalog line {line_no}: unknown kind {kind!r}")
                cat.system.setdefault(name.strip(), set()).add(kind)
            elif line.startswith("lifecycle:"):
                cat.lifecycle.add(line[10:].strip())
            else:
                raise ConfigError(f"entry catalog line {line_no}: unknown entry {line!r}")
        return cat

    def bound(self, manifest: Manifest) -> "EntryCatalog":
        comp: dict[str, set[str]] = {}
        for c in manifest.components:
            comp.setdefault(c.name, set()).add(c.kind)
        return replace(self, component_kinds=comp)

    def classify(self, sig: MethodSig) -> str | None:
        """Entry kind for a method, or None when it is not an entry point."""
        if sig.method_name in self.user:
            return "UserInteraction"
        kinds = self.system.get(sig.method_name)
        if kinds and self.component_kinds.get(sig.class_name, set()) & kinds:
            return "SystemEvent"
        if sig.method_name in self.lifecycle:
            return "Lifecycle"
        return None
