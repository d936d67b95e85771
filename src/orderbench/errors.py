"""Exception types shared across the workbench.

Errors fall into three groups: malformed input (FormatError and the
structure-validation errors), violated operation preconditions, and
internal consistency failures that a mathematical argument rules out
(these signal an implementation bug, never expected in normal use).
"""


class OrderbenchError(Exception):
    """Base class for all workbench errors."""


class FormatError(OrderbenchError):
    """Input document is malformed (bad JSON shape, unknown keys, bad types)."""


class UnusableFile(OrderbenchError):
    """A file named by the input cannot be read (missing, a directory, not
    permitted, not UTF-8 text), or, for `gen --out`, written."""


class IndexOutOfRange(OrderbenchError):
    """An element index lies outside the structure's carrier."""


class MissingMinimum(OrderbenchError):
    """The designated zero is not related below every element."""


class NotTransitive(OrderbenchError):
    """The stored relation fails transitivity.

    `witness` is a triple (x, y, z) with x < y < z but not x < z.
    """

    def __init__(self, witness):
        super().__init__(f"relation not transitive, witness {witness}")
        self.witness = witness


class CapExceeded(OrderbenchError):
    """Carrier size exceeds the documented cap of an enumerative operation."""


class NotAntisymmetric(OrderbenchError):
    """Two distinct elements are order-equivalent where a partial order is needed.

    `witness` is the offending pair.
    """

    def __init__(self, witness):
        super().__init__(f"order not antisymmetric, witness {witness}")
        self.witness = witness


class NotLattice(OrderbenchError):
    """The derived order is not a lattice."""


class NotGBA(OrderbenchError):
    """The structure is not a generalized Boolean algebra."""


class PreconditionFailed(OrderbenchError):
    """A stated operation precondition does not hold for the given input."""


class NotAFilter(OrderbenchError):
    """The given subset is not a nonempty proper filter."""


class NotOpen(OrderbenchError):
    """A family member is not an open set of the given topology."""


class NotPseudobasis(OrderbenchError):
    """The given family fails the pseudobasis conditions."""


class NotClopen(OrderbenchError):
    """A family member is not clopen where clopen members are required."""


class NotContinuous(OrderbenchError):
    """A point map has a non-open preimage of an open set."""


class NotInterpolator(OrderbenchError):
    """The given relation fails the interpolator axioms."""


class NotUltrafilter(OrderbenchError):
    """Internal consistency failure: an induced filter is not an ultrafilter.

    The supporting theorem rules this out; raising it signals a bug.
    """


class ZeroNotPreserved(OrderbenchError):
    """A structure map does not send zero to zero."""


class NotTightish(OrderbenchError):
    """The given map is not tightish, so it cannot be factored."""


class ConstructionIncomplete(OrderbenchError):
    """Internal consistency failure in the universal factoring construction.

    The supporting theorem rules this out; raising it signals a bug.
    """


class DimensionMismatch(OrderbenchError):
    """Relations or maps are composed across mismatched carriers."""


class UnknownFamily(OrderbenchError):
    """Requested named structure family is not registered."""


class UnknownSuite(OrderbenchError):
    """Requested named property suite is not registered."""


class InternalCheckFailed(OrderbenchError):
    """A condition guaranteed by construction failed; signals a bug."""
