"""Exception and warning types, and the helper every warning is issued through."""

import sys
import warnings


class VarsphereError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(VarsphereError):
    """Invalid input data, configuration, or arguments."""


class NumericalError(VarsphereError):
    """A computation failed or left its tolerated numerical range."""


class ConvergenceWarning(UserWarning):
    """An iterative routine stopped before reaching its target tolerance."""


def warn(message: str | warnings.WarningMessage, category: type[Warning] = UserWarning) -> None:
    """warnings.warn, attributed to the first caller outside this package (as
    skip_file_prefixes does from Python 3.12), looked up on the module at each
    call so that a wrapper installed there sees every warning once.  A warning
    recorded in this process goes through warnings.warn_explicit instead, with
    the same attribution: such a wrapper saw it when it was recorded."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    if not isinstance(message, warnings.WarningMessage):
        return warnings.warn(message, category, stacklevel=level)
    where = frame.f_globals
    warnings.warn_explicit(message.message, message.category, frame.f_code.co_filename, frame.f_lineno,
                           where.get("__name__"), where.setdefault("__warningregistry__", {}))
