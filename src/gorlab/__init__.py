"""Exact homological algebra over short Gorenstein local rings.

gorlab works over rings R = k + V + soc with m^3 = 0 != m^2 over a prime
field GF(p), encoded by a nondegenerate symmetric bilinear form on V.  It
computes minimal free resolutions, Tor/Ext tables with certified tails,
Hilbert/Poincare series with rationality certificates against 1 - e t + t^2,
Koszulness verdicts, and seeded verification suites.
"""

from .errors import (
    CertificateError,
    ConfigError,
    GorlabError,
    InsufficientDegree,
    NotMaterialized,
    SchemaError,
)
from .homology import ext, iota_vanishing, length_count_audit, tor, tor_induced
from .koszul import KoszulVerdict, is_koszul, koszul_series_check
from .modules import (
    FiniteModule,
    ModuleMap,
    Presentation,
    cyclic_module,
    direct_sum,
    from_presentation,
    hilbert_function,
    hom_space,
    matlis_dual,
    nu,
    quotient,
    radical_submodule,
    random_module,
    socle,
    split_extension,
    submodule,
)
from .resolution import MinimalFreeResolution, k_syzygy_dims, resolve
from .ring import (
    ShortGorensteinRing,
    hyperbolic_form,
    identity_form,
    make_ring,
    random_nondegenerate_form,
    validate_general_algebra,
)
from .series import (
    RationalityCertificate,
    TruncatedIntegerSeries,
    certify_rational,
    expand_rational,
    hilbert_series,
    koszul_formula_holds,
    poincare_series,
    series_identity_check,
    tor_series,
)
from .verify import TrialConfig, VerificationReport, run_check

__version__ = "0.1.0"

__all__ = [
    "CertificateError", "ConfigError", "GorlabError", "InsufficientDegree",
    "NotMaterialized", "SchemaError", "ext", "iota_vanishing", "length_count_audit", "tor",
    "tor_induced", "KoszulVerdict", "is_koszul", "koszul_series_check",
    "FiniteModule", "ModuleMap", "Presentation", "cyclic_module",
    "direct_sum", "from_presentation", "hilbert_function", "hom_space",
    "matlis_dual", "nu", "quotient", "radical_submodule", "random_module",
    "socle", "split_extension", "submodule", "MinimalFreeResolution",
    "k_syzygy_dims", "resolve", "ShortGorensteinRing", "hyperbolic_form",
    "identity_form", "make_ring", "random_nondegenerate_form",
    "validate_general_algebra", "RationalityCertificate",
    "TruncatedIntegerSeries", "certify_rational", "expand_rational",
    "hilbert_series", "koszul_formula_holds", "poincare_series",
    "series_identity_check", "tor_series", "TrialConfig",
    "VerificationReport", "run_check",
]
