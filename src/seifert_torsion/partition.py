"""Abelian Chern-Simons partition magnitudes at level k, gauge rank N.

The partition value is a sum over flat-bundle classes: each class P carries a
stationary phase exp(i k cs_P) weighted by a common coefficient k^{m_X} K_X,
where m_X = N (g - 1) and K_X = torsion_order^{-N/2}.  Two routes to the
magnitude are provided (partition_magnitude and |zbar_partition_value|) and
agree to floating-point accuracy; they differ only in where the 1/sqrt of the
class count is carried.

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
        object.__setattr__(
            self, "cs_values", tuple(float(c) for c in self.cs_values)
        )


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
    """k^m with the negative-exponent case kept exact until the division."""
    if exponent >= 0:
        try:
            return float(level**exponent)
        except OverflowError:
            raise NumericWindowError("level power k^m_X is outside the double range") from None
    return float(Fraction(1, level ** (-exponent)))


def _class_count(data: SeifertData, gauge_rank: int) -> int:
    order = torsion_order_integer(data)
    if order == 0:
        raise ChernNumberZero()
    return order**gauge_rank


def _phase_sum(inputs: PartitionInputs) -> complex:
    """sum_P exp(i k cs_P), with the class count enforced."""
    d = validate_seifert(inputs.data)
    classes = _class_count(d, inputs.gauge_rank)
    if len(inputs.cs_values) != classes:
        raise CsLengthMismatch(classes, len(inputs.cs_values))
    k = float(inputs.level)
    re = math.fsum(math.cos(k * c) for c in inputs.cs_values)
    im = math.fsum(math.sin(k * c) for c in inputs.cs_values)
    return complex(re, im)


def zbar_component_magnitude(
    data: SeifertData, gauge_rank: int = 1, level: int = 1
) -> float:
    """|contribution of a single flat-bundle class| = k^{m_X} K_X."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    m = m_exponent(data, gauge_rank)
    return _level_power(level, m) * volume_coefficient(data, gauge_rank)


def zbar_partition_value(inputs: PartitionInputs) -> complex:
    """Partition value normalized by the symplectic volume of the moduli space.

    zbar = k^{m_X} K_X exp(i pi (N/4 - eta0/2)) sum_P exp(i k cs_P).
    """
    d = validate_seifert(inputs.data)
    total = _phase_sum(inputs)
    scale = zbar_component_magnitude(d, inputs.gauge_rank, inputs.level)
    return scale * phase_factor(d, inputs.gauge_rank) * total


def z_partition_value(inputs: PartitionInputs) -> complex:
    """Partition value with the gravitational normalization phase.

    z = k^{m_X} K_X exp(i pi N grav_phase) sum_P exp(i k cs_P); same
    magnitude as zbar_partition_value, different overall phase.
    """
    if inputs.grav_phase is None:
        raise ValueError(
            "grav_phase is required for the gravitationally normalized value"
        )
    d = validate_seifert(inputs.data)
    total = _phase_sum(inputs)
    scale = zbar_component_magnitude(d, inputs.gauge_rank, inputs.level)
    grav = cmath.exp(1j * math.pi * inputs.gauge_rank * inputs.grav_phase)
    return scale * grav * total


def partition_magnitude(inputs: PartitionInputs) -> float:
    """|Z| = k^{m_X} |sum_P exp(i k cs_P)| / sqrt(class count).

    Coincides with |zbar_partition_value| because K_X = 1/sqrt(class count);
    bounded by k^{m_X} sqrt(class count), with equality exactly when all
    phases align.
    """
    d = validate_seifert(inputs.data)
    total = _phase_sum(inputs)
    classes = _class_count(d, inputs.gauge_rank)
    m = m_exponent(d, inputs.gauge_rank)
    return (
        _level_power(inputs.level, m)
        * abs(total)
        / math.sqrt(float(classes))
    )
