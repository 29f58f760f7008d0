"""Certified numerics for a prime-indicator minorant built from sieve weights.

The package has three layers:

  * interval tools: directed-rounding enclosures, a rigorous Buchstab
    table, and piecewise bounds for the Buchstab function (buchstab);
  * exact geometry: rational halfspace trees for the exponent regions,
    exact integer Irwin-Hall volume fractions rounded outward once, and
    verified adaptive integration of the three loss integrals against
    the budget targets (regions, quadrature, losses);
  * an exact integer harness that re-derives every decomposition
    identity termwise on a dyadic window (sieve_harness).

The command line front end lives in sievebound.cli.
"""

from .buchstab import (
    BRANCH_CEILING,
    BRANCH_FLOOR,
    PLATEAU_LOWER,
    PLATEAU_UPPER,
    BuchstabTable,
    SoundnessError,
    Enclosure,
    OMEGA_LOWER,
    OMEGA_UPPER,
    build_table,
    dump_table_csv,
    omega_bound,
    omega_bound_range,
    omega_enclosure,
)
from .losses import (
    DEFAULT_BUDGETS,
    DEFAULT_TOLS,
    LOSS_NAMES,
    LossLedger,
    TARGETS,
    assemble_ledger,
    integration_domain,
    loss_a3,
    loss_b3,
    loss_c,
    loss_mc,
    verified_loss,
)
from .quadrature import (
    Integrand,
    IntegralEstimate,
    MONTE_CARLO,
    RIGOROUS,
    integrate_mc,
    integrate_rigorous,
)
from .regions import (
    PAIR_BASE,
    REGION_A,
    REGION_B,
    REGION_C,
    REGION_U_A3,
    REGION_U_B3,
    RegionPredicate,
    TYPE_II_STRIP,
    catalog_json,
    region_catalog,
    type_i_feasible,
    type_ii_feasible,
)
from .sieve_harness import (
    DecompositionRecord,
    SieveContext,
    build_context,
    decompose,
    harness_report,
    psi,
    window_term,
)

__version__ = "0.1.0"

__all__ = [
    "BRANCH_CEILING",
    "BRANCH_FLOOR",
    "BuchstabTable",
    "DEFAULT_BUDGETS",
    "DEFAULT_TOLS",
    "DecompositionRecord",
    "Enclosure",
    "Integrand",
    "IntegralEstimate",
    "LOSS_NAMES",
    "LossLedger",
    "MONTE_CARLO",
    "OMEGA_LOWER",
    "OMEGA_UPPER",
    "PAIR_BASE",
    "PLATEAU_LOWER",
    "PLATEAU_UPPER",
    "REGION_A",
    "REGION_B",
    "REGION_C",
    "REGION_U_A3",
    "REGION_U_B3",
    "RIGOROUS",
    "RegionPredicate",
    "SieveContext",
    "SoundnessError",
    "TARGETS",
    "TYPE_II_STRIP",
    "assemble_ledger",
    "build_context",
    "build_table",
    "catalog_json",
    "decompose",
    "dump_table_csv",
    "harness_report",
    "integrate_mc",
    "integrate_rigorous",
    "integration_domain",
    "loss_a3",
    "loss_b3",
    "loss_c",
    "loss_mc",
    "omega_bound",
    "omega_bound_range",
    "omega_enclosure",
    "psi",
    "region_catalog",
    "type_i_feasible",
    "type_ii_feasible",
    "verified_loss",
    "window_term",
    "__version__",
]
