"""Abelian Chern-Simons partition magnitudes at level k, gauge rank N.

The partition value is a sum over flat-bundle classes: each class P carries a
stationary phase exp(i k cs_P) weighted by a common coefficient k^{m_X} K_X,
where m_X = N (g - 1) and K_X = torsion_order^{-N/2}.  partition_values makes
one evaluation (one class count, one phase sum S = sum_P exp(i k cs_P), one
eta phase), and the three public values are fields of it.  The magnitude keeps
two formulas, k^{m_X} |S| / sqrt(class count) and |zbar|, which agree to
floating-point accuracy because K_X = 1/sqrt(class count).

cs_values must supply one Chern-Simons phase per flat-bundle class, in the
lexicographic character order of enumerate_torsion_characters (N-fold
product order for gauge rank N).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .dedekind import adiabatic_eta
from .errors import ChernNumberZero, CsLengthMismatch, NumericWindowError
from .homology import class_count
from .seifert import SeifertData, torsion_order_integer, validate_seifert
from .torsion import volume_coefficient


@dataclass(frozen=True)
class PartitionInputs:
    """Everything a partition-value evaluation needs.

    grav_phase is the optional gravitational normalization exponent
    eta_grav / 4 + CS(A^g) / (24 pi); it multiplies the value by
    exp(i pi N grav_phase) and is required only by z_partition_value.
    """

    data: SeifertData
    gauge_rank: int = 1
    level: int = 1
    cs_values: tuple[float, ...] = ()
    grav_phase: float | None = None

    def __post_init__(self):
        if self.gauge_rank < 1:
            raise ValueError(f"gauge rank must be >= 1, got {self.gauge_rank}")
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        object.__setattr__(self, "cs_values", tuple(map(float, self.cs_values)))


def m_exponent(data: SeifertData, gauge_rank: int = 1) -> int:
    """Level exponent m_X = N (g - 1); requires c1 != 0."""
    d = validate_seifert(data)
    if gauge_rank < 1:
        raise ValueError(f"gauge rank must be >= 1, got {gauge_rank}")
    if torsion_order_integer(d) == 0:
        raise ChernNumberZero()
    return gauge_rank * (d.genus - 1)


def phase_factor(data: SeifertData, gauge_rank: int = 1) -> complex:
    """Unit-modulus factor exp(i pi (N/4 - eta0/2)).

    The exponent is exact rational arithmetic until the final exp.
    """
    eta = adiabatic_eta(data, gauge_rank)
    exponent = Fraction(gauge_rank, 4) - eta / 2
    return cmath.exp(1j * math.pi * float(exponent))


def _level_power(level: int, exponent: int) -> float:
    """k^m as a float, exact until the last conversion.

    k^|m| >= 2^bits, so bits >= 1024 overflows at once and bits >= 1075 gives 0.0.
    """
    bits = (level.bit_length() - 1) * abs(exponent)
    if exponent < 0:
        return 0.0 if bits >= 1075 else float(Fraction(1, level ** (-exponent)))
    if bits < 1024:
        try:
            return float(level**exponent)
        except OverflowError:
            pass
    raise NumericWindowError("level power k^m_X is outside the double range")


def zbar_component_magnitude(
    data: SeifertData, gauge_rank: int = 1, level: int = 1
) -> float:
    """|contribution of a single flat-bundle class| = k^{m_X} K_X."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    m = m_exponent(data, gauge_rank)
    return _level_power(level, m) * volume_coefficient(data, gauge_rank)


@dataclass(frozen=True)
class PartitionValues:
    """Every partition quantity of one evaluation; z is None without grav_phase."""

    classes: int
    m_x: int
    component_magnitude: float
    phase_factor: complex
    magnitude: float
    zbar: complex
    z: complex | None


def partition_values(inputs: PartitionInputs) -> PartitionValues:
    """Evaluate the datum once: one class count, one phase sum, one eta phase.

    The class count is the closed-form torsion order to the N-th power,
    which equals |Tors H1|^N because c1 != 0 here.  Raises ChernNumberZero,
    NumericWindowError past 4300 class-count digits, CsLengthMismatch, then
    NumericWindowError from the level power (or from the gravitational
    phase, when pi N grav_phase overflows), in this order.
    """
    d = validate_seifert(inputs.data)
    n = inputs.gauge_rank
    order = torsion_order_integer(d)
    if order == 0:
        raise ChernNumberZero()
    classes = class_count(order, n)
    if len(inputs.cs_values) != classes:
        raise CsLengthMismatch(classes, len(inputs.cs_values))
    k = float(inputs.level)
    angles = [k * c for c in inputs.cs_values]
    total = complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))
    m = n * (d.genus - 1)
    level_power = _level_power(inputs.level, m)
    component = level_power * volume_coefficient(d, n)
    pf = phase_factor(d, n)
    z = None
    if inputs.grav_phase is not None:
        try:
            grav = cmath.exp(1j * math.pi * n * inputs.grav_phase)
        except ValueError:
            raise NumericWindowError("angle pi N grav_phase is outside the double range") from None
        z = component * grav * total
    magnitude = level_power * abs(total) / math.sqrt(float(classes))
    return PartitionValues(classes, m, component, pf, magnitude, component * pf * total, z)


def zbar_partition_value(inputs: PartitionInputs) -> complex:
    """Partition value normalized by the symplectic volume of the moduli space.

    zbar = k^{m_X} K_X exp(i pi (N/4 - eta0/2)) sum_P exp(i k cs_P).
    """
    return partition_values(inputs).zbar


def z_partition_value(inputs: PartitionInputs) -> complex:
    """Partition value with the gravitational normalization phase.

    z = k^{m_X} K_X exp(i pi N grav_phase) sum_P exp(i k cs_P); same
    magnitude as zbar_partition_value, different overall phase.
    """
    if inputs.grav_phase is None:
        raise ValueError("grav_phase is required for the gravitationally normalized value")
    return partition_values(inputs).z


def partition_magnitude(inputs: PartitionInputs) -> float:
    """|Z| = k^{m_X} |sum_P exp(i k cs_P)| / sqrt(class count).

    Coincides with |zbar_partition_value| because K_X = 1/sqrt(class count);
    bounded by k^{m_X} sqrt(class count), with equality exactly when all
    phases align.
    """
    return partition_values(inputs).magnitude
