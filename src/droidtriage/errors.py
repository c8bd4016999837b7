"""Exception types shared across the pipeline."""

from __future__ import annotations


class TriageError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- parsing


class IrSyntaxError(TriageError):
    """Malformed manifest or IR text."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateSignatureError(TriageError):
    def __init__(self, sig: str):
        super().__init__(f"duplicate method signature: {sig}")
        self.sig = sig


class BadBranchTargetError(TriageError):
    def __init__(self, method: str, target: int):
        super().__init__(f"{method}: branch target {target} does not exist")
        self.method = method
        self.target = target


class EmptyProgramError(TriageError):
    pass


# ---------------------------------------------------------------- analysis


class ToolError(TriageError):
    """Base for analysis-tool failures; surfaced to agents as observations."""


class InvalidSiteError(ToolError):
    pass


class UnknownMethodError(ToolError):
    pass


class NotAnInvokeError(ToolError):
    pass


class NoResultVariableError(ToolError):
    pass


class InvalidTargetError(ToolError):
    pass


# ---------------------------------------------------------------- backend


class BackendError(TriageError):
    pass


class BackendTimeoutError(BackendError):
    pass


class HttpError(BackendError):
    def __init__(self, status, message: str = ""):
        super().__init__(f"http error (status={status}) {message}".strip())
        self.status = status


class SchemaError(BackendError):
    """Provider response did not match the chat-completions wire shape."""


class SchemaViolationError(TriageError):
    """Model output failed report-schema validation after retry."""


class UnpricedModelError(TriageError):
    def __init__(self, model_id: str):
        super().__init__(f"no pricing configured for model {model_id!r}")
        self.model_id = model_id


class EmptyLedgerError(TriageError):
    pass


# ---------------------------------------------------------------- harness


class EmptyManifestError(TriageError):
    pass


class UnreadableBundleError(TriageError):
    """A bundle file could not be read or is not UTF-8."""


class EmptyEvaluationError(TriageError):
    pass


class ConfigError(TriageError):
    pass


class ReportIoError(TriageError):
    pass
