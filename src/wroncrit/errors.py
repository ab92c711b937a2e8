"""Exception vocabulary shared across the package.

Every error raised by the public API is a subclass of WroncritError, so callers
(and the CLI exit-code mapping) can catch one base type.
"""


class WroncritError(Exception):
    pass


# scalars / fields

class NotMonic(WroncritError):
    pass


class NotIrreducible(WroncritError):
    pass


class MixedFields(WroncritError):
    pass


# polynomial ring

class ZeroPolynomial(WroncritError):
    pass


class ZeroInputs(WroncritError):
    pass


# Wronskian equation

class NotSquareFree(WroncritError):
    pass


class NotSolvable(WroncritError):
    pass


class ExhaustedLadder(WroncritError):
    pass


class VerificationFailed(WroncritError):
    pass


# ramification bookkeeping

class DependentBasis(WroncritError):
    pass


class NotRealizable(WroncritError):
    pass


class DimensionMismatch(WroncritError):
    pass


class DuplicatePoints(WroncritError):
    pass


class CheckFailed(WroncritError):
    pass


# reproduction

class NotFertile(WroncritError):
    pass


class NotDivisible(WroncritError):
    pass


class IdentityFailed(WroncritError):
    pass


# master functions / critical points

class Inadmissible(WroncritError):
    pass


class EmptySector(WroncritError):
    pass


class NotCertified(WroncritError):
    pass


# Schubert calculus

class BoxOverflow(WroncritError):
    pass


# local multiplicity

class NotASolution(WroncritError):
    pass


class NotIsolated(WroncritError):
    pass


class NotARoot(WroncritError):
    pass


class ParseError(WroncritError):
    pass

