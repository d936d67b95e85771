"""Exception types shared across the workbench, one per way a verifier fails.

The command line reads its exit code from the type:

- `InputError` (exit 2): the input is malformed or past a cap, a file
  cannot be read or written, or a name is not registered.
- `CapExceeded` (exit 2): an `InputError` for a size or parameter outside
  an operation's documented range.
- `PreconditionFailed` (exit 1): an operation's stated precondition does
  not hold for a well-formed input.
- `InternalCheckFailed` (exit 1): a condition that a theorem guarantees
  fails; this signals a bug, never expected in normal use.

Every class derives from `OrderbenchError`, whose optional `witness` is
the offending tuple where there is one.
"""


class OrderbenchError(Exception):
    """Base class for all workbench errors."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InputError(OrderbenchError):
    """The input is malformed, past a cap, unreadable or names nothing known."""


class CapExceeded(InputError):
    """A carrier size or parameter lies outside an operation's documented range."""


class PreconditionFailed(OrderbenchError):
    """A stated operation precondition does not hold for the given input."""


class InternalCheckFailed(OrderbenchError):
    """A condition guaranteed by construction failed; signals a bug."""
