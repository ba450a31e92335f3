"""Exception and warning types shared by every module in the package.

The hierarchy mirrors how the CLI maps failures to exit codes:

* ValidationError   -> exit 2 (bad input data or unparsable text)
* DomainError       -> exit 3 (valid data outside a formula's domain)
* NumericWindowError-> exit 4 (zeta kernel asked outside its accuracy window,
                       a float result outside the double range, or a class
                       count or other exact report value past 4300 digits)
"""


def brief_int(n: int) -> str:
    """str(n) for an error message, or its sign and "<more than 50 digits>" past 50 digits."""
    return str(n) if abs(n) < 10**50 else f"{'-' * (n < 0)}<more than 50 digits>"


def brief_text(text: str, show=repr) -> str:
    """show(text) for an error message, or "<N characters>" past 50 characters."""
    return show(text) if len(text) <= 50 else f"<{len(text)} characters>"


class SeifertError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SeifertError):
    """Input data violates a structural invariant."""


class CoprimalityViolation(ValidationError):
    """gcd(alpha, beta) != 1 for an exceptional-fiber pair."""

    def __init__(self, index, alpha, beta):
        self.index = index  # 1-based pair position, None for a standalone pair
        self.alpha = alpha
        self.beta = beta
        where = f" (pair {index})" if index is not None else ""
        super().__init__(f"gcd({brief_int(alpha)}, {brief_int(beta)}) != 1{where}")


class NonPositiveAlpha(ValidationError):
    """An exceptional-fiber order alpha < 1."""

    def __init__(self, index, alpha):
        self.index = index
        self.alpha = alpha
        where = f" (pair {index})" if index is not None else ""
        super().__init__(f"fiber order must be >= 1, got {brief_int(alpha)}{where}")


class NegativeGenus(ValidationError):
    """Base genus g < 0."""

    def __init__(self, genus):
        self.genus = genus
        super().__init__(f"genus must be >= 0, got {brief_int(genus)}")


class ParseError(ValidationError):
    """Seifert-datum text does not match the grammar."""

    def __init__(self, offset, expected, found=None):
        self.offset = offset
        self.expected = expected
        self.found = found
        got = f", found {found!r}" if found else ", found end of input"
        super().__init__(f"offset {offset}: expected {expected}{got}")


class DomainError(SeifertError):
    """Valid data lies outside the domain of the requested quantity."""


class ChernNumberZero(DomainError):
    """The orbifold Chern number vanishes.

    The closed forms for the moduli space, the torsion powers, and the
    partition magnitudes all assume c1 != 0 (equivalently, a nonempty
    Sasakian/rational-fibration case).
    """

    def __init__(self, message=None):
        super().__init__(
            message
            or "orbifold chern number c1 = 0: the closed-form moduli and "
            "torsion identities require c1 != 0"
        )


class NonPositiveChern(DomainError):
    """c1 <= 0 where strict positivity is required (isotropy volume)."""

    def __init__(self, c1):
        self.c1 = c1
        super().__init__(f"isotropy volume requires c1 > 0, got c1 = {c1}")


class CapExceeded(DomainError):
    """Character enumeration would exceed the caller's cap."""

    def __init__(self, order, cap):
        self.order = order
        self.cap = cap
        super().__init__(f"torsion group order {order} exceeds cap {cap}")


class CsLengthMismatch(DomainError):
    """cs_values length differs from the number of flat-bundle classes."""

    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(
            f"need one Chern-Simons value per flat-bundle class: "
            f"expected {expected}, got {got}"
        )


class NumericWindowError(SeifertError):
    """A zeta kernel was asked for a point outside its contract, a float
    result lies outside the double range, or a class count |Tors H1|^N or
    another exact report value has more than 4300 digits."""


class PoleAtOne(NumericWindowError):
    """s is inside the exclusion band around the zeta pole at s = 1."""

    def __init__(self, s):
        self.s = s
        super().__init__(f"zeta pole: s = {s} is within 1e-12 of 1")


class UnsupportedWindow(NumericWindowError):
    """s lies outside the supported accuracy window [-6, 6]."""

    def __init__(self, s):
        self.s = s
        super().__init__(f"s = {s} outside the supported window [-6, 6]")


class SingularPoint(NumericWindowError):
    """The torsion functions are singular near s = 1/2 (pole of zeta(2s))."""

    def __init__(self, s):
        self.s = s
        super().__init__(f"s = {s} is within 1e-9 of the singular point 1/2")


class AngleOutOfRange(NumericWindowError):
    """A rotation angle theta lies outside its open or half-open interval."""

    def __init__(self, theta, interval="(0, 1)"):
        self.theta = theta
        super().__init__(f"angle {theta} outside {interval}")


class SeifertWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class ChernZeroWarning(SeifertWarning):
    """c1 = 0: the torsion-power identity is not asserted for this datum."""

    def __init__(self, message="c1 = 0: torsion-power identity not asserted for this datum"):
        super().__init__(message)


class NegativeChernWarning(SeifertWarning):
    """c1 < 0: positivity expected of a Sasakian orientation is violated.

    Absolute values are used in every affected formula, so results are
    still well defined; the warning flags the orientation mismatch.
    """
