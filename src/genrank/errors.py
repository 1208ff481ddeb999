"""Exception taxonomy.

Two families matter to callers: InputError covers every rejected input or
violated precondition (CLI exit code 1), InternalInvariantError covers broken
internal guarantees that indicate a bug, never bad input (CLI exit code 2).
"""

from __future__ import annotations


class GenrankError(Exception):
    """Base class for all package errors."""


class InputError(GenrankError):
    """Bad input or violated precondition; the caller can fix it."""


class InternalInvariantError(GenrankError):
    """A guaranteed invariant failed; this is a bug, not bad input."""


class NotConverged(InternalInvariantError):
    """An exact iterative method exceeded its safety bound."""


# -- exact linear algebra ---------------------------------------------------

class DimensionMismatch(InputError):
    """Row lengths or ambient dimensions disagree."""


class AllRowsZero(InputError):
    """A subspace was requested from rows that span only the zero space."""


class MixedAmbient(InputError):
    """Objects from different ambient spaces or fields were combined."""


# -- partitions and families ------------------------------------------------

class InvalidPartition(InputError):
    """Blocks overlap, are empty, or do not cover the index set."""


class TooLarge(InputError):
    """An exhaustive routine was asked to exceed its size guard."""


class MismatchedGroundSet(InputError):
    """Two partitions do not partition the same index set."""


# -- symbolic rank ----------------------------------------------------------

class BadOrder(InputError):
    """An order parameter (tensor order k, rigidity dimension t) out of range."""


class DimTooSmall(InputError):
    """A family member has dimension too small for the requested split."""


class CharTooSmall(InputError):
    """The prime field is too small for the randomized rank bound."""


class BadTrials(InputError):
    """A randomized rank was asked for fewer than one trial."""


# -- rigidity ---------------------------------------------------------------

class BadVertex(InputError):
    """An edge endpoint is out of range or the edge is a loop."""


class TooFewVertices(InputError):
    """Too few vertices for the requested rigidity dimension."""


# -- loaders ----------------------------------------------------------------

class UnknownField(InputError):
    """The field tag is neither \"q\" nor {\"fp\": p}."""


class BadScalar(InputError):
    """A scalar token does not parse in the declared field."""


class ZeroSubspace(InputError):
    """A family member spans only the zero space."""


class LoopEdge(InputError):
    """A graph edge joins a vertex to itself."""


class DuplicateEdge(InputError):
    """A graph edge appears more than once."""


class BadPrime(InputError):
    """The requested modulus is not a word-sized prime."""
