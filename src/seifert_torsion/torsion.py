"""Spectral torsion functions and the volume data they control.

K0(s) and K_theta(s) are the combinations of zeta kernels whose value and
derivative at s = 0 give the logarithm of the scalar analytic torsion of a
circle-fibered three-manifold.  torsion_prefactor packages the downstream
quantities (scalar torsion, volume coefficient, symplectic volume, overall
prefactor) for a gauge group of rank N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AngleOutOfRange,
    ChernNumberZero,
    NegativeChernWarning,
    NonPositiveAlpha,
    NonPositiveChern,
    NumericWindowError,
    SingularPoint,
    UnsupportedWindow,
    brief_int,
)
from .seifert import SeifertData, chern_number, torsion_order_integer, validate_seifert
from .zetafunc import WINDOW, hurwitz_zeta, riemann_zeta

TWO_PI = 2.0 * math.pi
_HALF_BAND = 1e-9


def _check_angle(theta) -> float:
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise AngleOutOfRange(theta, "(0, 1)")
    return theta


def _check_spectral_point(s: float) -> float:
    """Shared window for K0 and K_theta: 2s in [-6, 6], away from s = 1/2."""
    s = float(s)
    if not -WINDOW <= 2.0 * s <= WINDOW:
        raise UnsupportedWindow(s)
    if abs(2.0 * s - 1.0) < _HALF_BAND:
        raise SingularPoint(s)
    return s


@dataclass(frozen=True)
class K0Params:
    """Inputs to K0(s) for one flat bundle.

    k_euler is the combination 2 dim H^0 - dim H^1 of the twisted cohomology;
    zero_kernel_dims lists (alpha_i, dim) over exceptional fibers where the
    local rotation angle vanishes, and nonzero_angles lists (alpha_i, theta)
    for fibers with rotation angle theta in (0, 1).
    """

    k_euler: int
    zero_kernel_dims: tuple[tuple[int, int], ...] = ()
    nonzero_angles: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        dims = []
        for alpha, dim in self.zero_kernel_dims:
            if alpha < 1:
                raise NonPositiveAlpha(None, alpha)
            if dim < 0:
                raise ValueError(f"kernel dimension {dim} < 0")
            dims.append((int(alpha), int(dim)))
        angles = []
        for alpha, theta in self.nonzero_angles:
            if alpha < 1:
                raise NonPositiveAlpha(None, alpha)
            angles.append((int(alpha), _check_angle(theta)))
        object.__setattr__(self, "zero_kernel_dims", tuple(dims))
        object.__setattr__(self, "nonzero_angles", tuple(angles))


@dataclass(frozen=True)
class KThetaParams:
    """Inputs to K_theta(s) for a character with global angle theta in (0, 1).

    dim_e_theta is the rank of the theta-isotypic subbundle, chi_sigma_star
    the orbifold Euler characteristic of the punctured base, and
    exceptional_terms the per-fiber (alpha_i, theta_ij) contributions.
    """

    dim_e_theta: int
    chi_sigma_star: Fraction
    theta: float
    exceptional_terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.dim_e_theta < 0:
            raise ValueError(f"dimension {self.dim_e_theta} < 0")
        object.__setattr__(self, "theta", _check_angle(self.theta))
        object.__setattr__(
            self, "chi_sigma_star", Fraction(self.chi_sigma_star)
        )
        terms = []
        for alpha, angle in self.exceptional_terms:
            if alpha < 1:
                raise NonPositiveAlpha(None, alpha)
            terms.append((int(alpha), _check_angle(angle)))
        object.__setattr__(self, "exceptional_terms", tuple(terms))


class DerivativeAtZero(NamedTuple):
    numeric: float
    closed_form: float


def k0_function(params: K0Params, alphas: tuple[int, ...], s: float) -> float:
    """K0(s) for the angle-zero sector of a flat bundle.

    K0(s) = k_euler (2 zeta(2s) + 1)
          + 2 zeta(2s) sum_i dim_i (alpha_i^{-2s} - 1)
          + sum_{i,j} alpha_i^{-2s} (zeta(2s, t_ij) + zeta(2s, 1 - t_ij)).

    alphas is the fiber-order list of the underlying datum; every alpha
    referenced by params must appear in it.  K0(0) = 0 identically.
    """
    s = _check_spectral_point(s)
    pool = list(alphas)
    for alpha, _ in params.zero_kernel_dims + params.nonzero_angles:
        if alpha not in pool:
            raise ValueError(
                f"fiber order {alpha} not among the datum's orders {tuple(alphas)}"
            )
    z2 = riemann_zeta(2.0 * s)
    terms = [params.k_euler * (2.0 * z2 + 1.0)]
    for alpha, dim in params.zero_kernel_dims:
        if dim:
            terms.append(2.0 * z2 * dim * (float(alpha) ** (-2.0 * s) - 1.0))
    for alpha, angle in params.nonzero_angles:
        pair = hurwitz_zeta(2.0 * s, angle) + hurwitz_zeta(2.0 * s, 1.0 - angle)
        terms.append(float(alpha) ** (-2.0 * s) * pair)
    return math.fsum(terms)


def k_theta_function(params: KThetaParams, s: float) -> float:
    """K_theta(s) for a nonzero-angle sector.

    K_theta(s) = dim * chi(Sigma*) * (zeta(2s, theta) + zeta(2s, 1 - theta))
               + sum_{i,j} alpha_i^{-2s} (zeta(2s, t_ij) + zeta(2s, 1 - t_ij)).

    Unchanged under theta -> 1 - theta applied to every angle.
    """
    s = _check_spectral_point(s)
    terms = []
    if params.dim_e_theta:
        pair = hurwitz_zeta(2.0 * s, params.theta) + hurwitz_zeta(
            2.0 * s, 1.0 - params.theta
        )
        terms.append(params.dim_e_theta * float(params.chi_sigma_star) * pair)
    for alpha, angle in params.exceptional_terms:
        pair = hurwitz_zeta(2.0 * s, angle) + hurwitz_zeta(2.0 * s, 1.0 - angle)
        terms.append(float(alpha) ** (-2.0 * s) * pair)
    return math.fsum(terms) if terms else 0.0


def trivial_rep_k0_params(data: SeifertData) -> K0Params:
    """K0 inputs for the trivial flat bundle: k_euler = 2 - 2g, all angles 0."""
    d = validate_seifert(data)
    return K0Params(
        k_euler=2 - 2 * d.genus,
        zero_kernel_dims=tuple((a, 1) for a in d.alphas),
        nonzero_angles=(),
    )


def k0_deriv0(data: SeifertData, step: float = 1e-5) -> DerivativeAtZero:
    """K0'(0) for the trivial bundle: central difference vs. closed form.

    The closed form is (4g - 4) log(2 pi) + 2 sum_i log alpha_i; the numeric
    value is the symmetric difference quotient of k0_function at +-step.
    The two agree to well under 1e-6.
    """
    d = validate_seifert(data)
    params = trivial_rep_k0_params(d)
    numeric = (
        k0_function(params, d.alphas, step) - k0_function(params, d.alphas, -step)
    ) / (2.0 * step)
    closed = (4 * d.genus - 4) * math.log(TWO_PI) + 2.0 * math.fsum(
        math.log(a) for a in d.alphas
    )
    return DerivativeAtZero(numeric, closed)


def scalar_torsion_trivial(data: SeifertData) -> float:
    """Scalar analytic torsion of the trivial flat line bundle.

    T = (2 pi)^{2 - 2g} / prod(alpha) = exp(-K0'(0) / 2), valid for c1 != 0.
    """
    d = validate_seifert(data)
    if chern_number(d) == 0:
        raise ChernNumberZero()
    try:
        return TWO_PI ** (2 - 2 * d.genus) / d.alpha_product
    except OverflowError:
        raise NumericWindowError("scalar torsion is outside the double range") from None


def volume_coefficient(data: SeifertData, gauge_rank: int = 1) -> float:
    """K_X = torsion_order ** (-N/2), the per-component torsion coefficient."""
    d = validate_seifert(data)
    if gauge_rank < 1:
        raise ValueError(f"gauge rank must be >= 1, got {gauge_rank}")
    order = torsion_order_integer(d)
    if order == 0:
        raise ChernNumberZero()
    try:
        return float(order) ** (-gauge_rank / 2.0)
    except OverflowError:
        raise NumericWindowError("volume coefficient is outside the double range") from None


@dataclass(frozen=True)
class TorsionReport:
    """Scalar torsion and the volume bundle for gauge rank N.

    radicand is the exact integer whose +-N/2 powers give symplectic_volume
    and volume_coefficient; prefactor = (2 pi)^{-N g} * volume_coefficient.
    """

    scalar_torsion: float
    prefactor: float
    volume_coefficient: float
    symplectic_volume: float
    radicand: int
    gauge_rank: int


def torsion_prefactor(data: SeifertData, gauge_rank: int = 1) -> TorsionReport:
    """Bundle of torsion-derived quantities; requires c1 != 0.

    For c1 < 0 the formulas use |c1| throughout and a NegativeChernWarning
    flags the orientation mismatch.
    """
    d = validate_seifert(data)
    if gauge_rank < 1:
        raise ValueError(f"gauge rank must be >= 1, got {gauge_rank}")
    c1 = chern_number(d)
    if c1 == 0:
        raise ChernNumberZero()
    if c1 < 0:
        warnings.warn(
            "c1 < 0: positivity expected of the fibration orientation is "
            "violated; absolute values used",
            NegativeChernWarning,
            stacklevel=2,
        )
    radicand = torsion_order_integer(d)
    try:
        k_x = float(radicand) ** (-gauge_rank / 2.0)
        prefactor = TWO_PI ** (-gauge_rank * d.genus) * k_x
        volume = float(radicand) ** (gauge_rank / 2.0)
    except OverflowError:
        rank = brief_int(gauge_rank)
        raise NumericWindowError(
            f"prefactor or symplectic volume at gauge rank {rank} is outside the double range"
        ) from None
    return TorsionReport(
        scalar_torsion=scalar_torsion_trivial(d),
        prefactor=prefactor,
        volume_coefficient=k_x,
        symplectic_volume=volume,
        radicand=radicand,
        gauge_rank=gauge_rank,
    )


@dataclass(frozen=True)
class IsotropyVolume:
    """sqrt(c1) with its exact rational radicand."""

    value: float
    radicand: Fraction


def isotropy_volume(data: SeifertData) -> IsotropyVolume:
    """Volume sqrt(c1) of the generic isotropy circle; requires c1 > 0."""
    d = validate_seifert(data)
    c1 = chern_number(d)
    if c1 <= 0:
        raise NonPositiveChern(c1)
    return IsotropyVolume(math.sqrt(c1), c1)
