"""Chart-level calculus for Lie algebroids and the geometries they carry.

Symbolic-first, numeric-fallback zero testing over a sampling box, with
verdict pipelines for bracket-compatible connections, metric and Poisson
structures, coframe geometries, and a holonomy cross-check.
"""

__version__ = "0.1.0"

from .symcore import Chart, ZeroPolicy, canon, is_zero, parse, to_text
from .bundles import Section, TensorField
from .algebroid import Algebroid, LieAlgebra, validate
from .connections import GConnection, TMConnection, christoffel
from .cartan import (
    Verdict,
    check_cartan,
    holonomy_check,
    identity_battery,
    metric_pair,
    parallelism_report,
    poisson_report,
    riemann_pipeline,
    theorem_a_verdict,
)

__all__ = [
    "__version__",
    "Chart",
    "ZeroPolicy",
    "canon",
    "is_zero",
    "parse",
    "to_text",
    "Section",
    "TensorField",
    "Algebroid",
    "LieAlgebra",
    "validate",
    "GConnection",
    "TMConnection",
    "christoffel",
    "Verdict",
    "check_cartan",
    "holonomy_check",
    "identity_battery",
    "metric_pair",
    "parallelism_report",
    "poisson_report",
    "riemann_pipeline",
    "theorem_a_verdict",
]
