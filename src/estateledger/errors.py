"""Single error type carrying a stable machine-readable code.

Codes are part of the external interface: the CLI maps them to exit
codes and scripts report them verbatim, so they must not be renamed.
"""


class LedgerError(Exception):
    def __init__(self, code: str, message: str = ""):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}" if message else code)


def err(code: str, message: str = "") -> LedgerError:
    return LedgerError(code, message)


def wrapped(code: str, context: str, exc: Exception) -> LedgerError:
    """`exc` as a `code` error after `context`; one of that code already
    is worded by its message, so the code reads once."""
    same = isinstance(exc, LedgerError) and exc.code == code
    return LedgerError(code, f"{context}: {exc.message if same else exc}")
