"""Exception types shared across the pipeline: one class per kind of failure.

A batch records a skipped app under its error's `kind`.  A misuse of the
package by its caller (an empty ledger, an unknown tier) is a `ValueError`.
"""

from __future__ import annotations


class TriageError(Exception):
    """Base class for all errors raised by this package."""

    kind: str


class UnreadableBundleError(TriageError):
    """A bundle file could not be read or is not UTF-8."""

    kind = "bundle-unreadable"


class InvalidBundleError(TriageError):
    """Malformed manifest or IR text."""

    kind = "bundle-invalid"


class ToolError(TriageError):
    """An analysis tool refused its arguments; surfaced to agents as an observation."""

    kind = "tool"


class ProviderUnavailableError(TriageError):
    """The model provider timed out, failed or refused the request."""

    kind = "provider-unavailable"


class SchemaError(TriageError):
    """Provider response did not match the chat-completions wire shape."""

    kind = "provider-schema"


class SchemaViolationError(TriageError):
    """Model output failed its tier's schema."""

    kind = "model-schema"


class ConfigError(TriageError):
    kind = "config"


class ReportIoError(TriageError):
    kind = "report-io"
