"""Computational calculus of quaternionic slice regular functions on
general (possibly non-symmetric) slice domains."""

from .errors import (CapMismatch, CapTooSmall, DegeneratePair,
                     DomainMismatch, EmptyInput, IdenticallyZero,
                     MaxTermsExceeded, NoAnnulus, NotADivisor, NotInDomain,
                     NotVanishingOnCap, NumericError, OnBoundary, OnCut,
                     OnRealAxis, OpenContour, OutsideConvergenceRegion,
                     ParamOutOfRange, ProbeOutside,
                     ProbeOutsideValidated, RealTraceMismatch,
                     SliceRegularError, UnitsEqual, ZeroPolynomial)
from .quaternion import (ONE, QI, QJ, QK, Quaternion, ZERO, embed_complex,
                         perp_unit, project_to_slice, rotate_unit,
                         same_slice, same_sphere, slice_decompose)
from .domains import (CapId, CassiniRegion, DomainSpec, ball, cap_component,
                      gamma_tube, preset, sigma_tau_omega, whole_space)
from .algebra import (QPoly, QRational, binom, conj_eval, conjugate, qpoly,
                      real_quadratic, recip_eval, reciprocal, reciprocal_poly,
                      star_eval, star_product, sym_eval, symmetrize)
from .slicefn import (SliceFunction, SphericalData, cullen_derivative,
                      differential, extend_from_slices, intersect_domains,
                      is_differential_singular, is_slice_preserving,
                      slice_regularity_residual, spherical_data)
from .zeros import (GhostDivisor, IsolatedZero, SphericalZero, ZeroReport,
                    cap_zeros, divides_near, factor_out_point,
                    factor_out_sphere, multiplicities,
                    newton_polish_on_slice, poly_zeros, vanishes_on_cap,
                    zero_scan)
from .series import (LaurentSeries, SingularityReport, SphericalSeries,
                     classify_singularity, laurent_coeffs, spherical_coeffs)
from .integral import (Contour, SymmetricRegion, local_cauchy,
                       nc_line_integral, slicewise_cauchy, volume_cauchy)
from . import douren

__all__ = [
    "Quaternion", "ONE", "ZERO", "QI", "QJ", "QK", "slice_decompose",
    "embed_complex", "project_to_slice", "perp_unit", "rotate_unit",
    "same_slice", "same_sphere",
    "DomainSpec", "CapId", "CassiniRegion", "ball", "whole_space", "preset",
    "cap_component", "gamma_tube", "sigma_tau_omega",
    "QPoly", "QRational", "qpoly", "binom", "real_quadratic",
    "star_product", "conjugate", "symmetrize", "reciprocal",
    "reciprocal_poly", "star_eval", "conj_eval", "sym_eval", "recip_eval",
    "SliceFunction", "SphericalData", "spherical_data", "cullen_derivative",
    "extend_from_slices", "differential", "is_differential_singular",
    "slice_regularity_residual", "is_slice_preserving", "intersect_domains",
    "ZeroReport", "IsolatedZero", "SphericalZero", "GhostDivisor",
    "poly_zeros", "zero_scan", "cap_zeros", "divides_near",
    "vanishes_on_cap", "factor_out_point", "factor_out_sphere",
    "multiplicities", "newton_polish_on_slice",
    "LaurentSeries", "SphericalSeries", "SingularityReport",
    "laurent_coeffs", "spherical_coeffs", "classify_singularity",
    "Contour", "SymmetricRegion", "nc_line_integral", "slicewise_cauchy",
    "local_cauchy", "volume_cauchy",
    "douren",
    "SliceRegularError", "NotInDomain", "OnRealAxis",
    "OnBoundary", "OnCut", "EmptyInput", "DomainMismatch", "DegeneratePair",
    "IdenticallyZero", "ZeroPolynomial", "NotADivisor",
    "NotVanishingOnCap", "CapMismatch", "CapTooSmall", "UnitsEqual",
    "RealTraceMismatch", "NoAnnulus", "OutsideConvergenceRegion",
    "OpenContour", "ProbeOutside", "ProbeOutsideValidated", "ParamOutOfRange",
    "NumericError", "MaxTermsExceeded",
]

__version__ = "1.0.0"
