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


def warn(message: str, category: type[Warning] = UserWarning) -> None:
    """warnings.warn, attributed to the first caller outside this package (as
    skip_file_prefixes does from Python 3.12), looked up on the module at each
    call so that a wrapper installed there sees every warning once."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
