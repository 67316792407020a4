"""Exceptions shared across the package.

Each error maps to a stable command-line exit code (see ``gshatter.cli``),
so callers can distinguish "your input was malformed" from "the group is
too small" from "an internal synthesis check failed".  `_quoted` cuts an
input short wherever a message quotes one.
"""

from __future__ import annotations

from typing import Any, Callable


def _quoted(value: Any, spell: Callable[[Any], str] = repr) -> str:
    """spell(value), cut short: a message quotes only the start of an input."""
    text = spell(value)
    return text if len(text) <= 60 else text[:57] + "..."


class GShatterError(Exception):
    """Base class for all package-specific errors."""


class GroupSpecError(GShatterError):
    """A group specification string could not be parsed or validated."""


class GroupTooSmallError(GShatterError):
    """The group has fewer elements than kernel synthesis requires.

    `required` is that number, or a power of two below it as text, such
    as "2^20000", when the number itself is too long to be worth having.
    """

    def __init__(self, order: int, required: int | str, mode: str):
        self.order = order
        self.required = required
        self.mode = mode
        super().__init__(
            f"group of order {order} is too small for mode '{mode}': "
            f"need at least {_quoted(required, str)} elements"
        )


class ModeElementError(GShatterError):
    """The group has no element of the kind the synthesis mode needs."""


class SynthesisVerificationError(GShatterError):
    """An internal consistency check failed after kernel synthesis.

    This is never silenced: a kernel is only returned once every claimed
    property has been re-checked against the definitions.
    """


class InvariantError(GShatterError):
    """An internal invariant of a construction failed; never bad input."""


class WitnessVerificationError(GShatterError):
    """The sweep's witness table failed an independent check.

    Either a witness (c1, c2) does not give its labels under the ReLU-sum
    definition, or the sweep found more label patterns than the counting
    bound allows.  Both mean an internal inconsistency, never bad input.
    """
