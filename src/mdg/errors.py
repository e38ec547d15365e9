"""Exception types shared across the package.

Every error carries its witness, or None, as the plain attribute
``witness``.
"""

from __future__ import annotations


class MDGError(Exception):
    """Base class for all package errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotALattice(MDGError):
    pass


class NotGeometric(MDGError):
    pass


class DuplicateAtom(MDGError):
    pass


class DuplicateEdge(MDGError):
    pass


class SelfLoop(MDGError):
    pass


class ForeignFlat(MDGError):
    pass


class NotComparable(MDGError):
    pass


class NotModular(MDGError):
    pass


class NotModularCoatom(MDGError):
    pass


class NotAModularCut(MDGError):
    pass


class DegenerateCut(MDGError):
    pass


class MismatchedBase(MDGError):
    pass


class InvalidExtension(MDGError):
    pass


class NotContractible(MDGError):
    pass


class ImproperFlat(MDGError):
    pass


class LatticeMismatch(MDGError):
    pass


class NotIso(MDGError):
    pass


class InconsistentChain(MDGError):
    pass


class SpecParse(MDGError):
    pass


class ResourceLimit(MDGError):
    pass
