"""Finite-horizon chaos certificates for weighted backward shifts.

The package evaluates, at explicit horizons, the counting and averaging
conditions behind distributional chaos and mean Li-Yorke behaviour of
weighted backward shifts on Frechet sequence spaces, and ships a catalog of
worked operators whose verdicts are pinned by tests.
"""

from .catalog import (CATALOG, CHECK_KINDS, CatalogEntry, build_example,
                      export_config, operator_from_config, run_check,
                      run_expected_suite)
from .dc_cert import (WitnessScheduleDC, check_dc_condition_A,
                      check_dc_condition_B, check_hypercyclicity_witness,
                      check_kothe_dc, check_lp_c0_dc, check_mop_sufficient,
                      refute_dc_condition_A, refute_hypercyclicity,
                      schedule_dc, search_witness_dc)
from .density import IndexPredicate, density_envelope, prefix_ratio
from .mly_cert import (CesaroSeries, WitnessScheduleMLY,
                       anchor_equivalence_probe, cesaro_distance_series,
                       check_acb, check_f3, check_kothe_mly,
                       check_mly_condition_A, check_mly_condition_B,
                       schedule_mly)
from .numerics import LogScalar, SparseVector
from .reports import CertificateReport, verdict_exit_code
from .sequences import TEMPLATES, side_from_template
from .shift import ShiftOperator
from .spaces import (IndexSet, KotheMatrix, SpaceSpec, c0_space,
                     condition_c_check, continuity_check, lp_space, metric,
                     rapidly_decreasing_space, seminorm)
from .weights import WeightSpec, bilateral_weights, product, unilateral_weights

__all__ = [
    "CATALOG", "CHECK_KINDS", "CatalogEntry", "CertificateReport",
    "CesaroSeries", "IndexPredicate", "IndexSet", "KotheMatrix", "LogScalar",
    "ShiftOperator", "SpaceSpec", "SparseVector", "TEMPLATES",
    "WeightSpec", "WitnessScheduleDC", "WitnessScheduleMLY",
    "anchor_equivalence_probe", "bilateral_weights", "build_example",
    "c0_space", "cesaro_distance_series", "check_acb",
    "check_dc_condition_A", "check_dc_condition_B", "check_f3",
    "check_hypercyclicity_witness", "check_kothe_dc", "check_kothe_mly",
    "check_lp_c0_dc", "check_mly_condition_A", "check_mly_condition_B",
    "check_mop_sufficient", "condition_c_check", "continuity_check",
    "density_envelope", "export_config", "lp_space",
    "metric", "operator_from_config",
    "prefix_ratio", "product", "rapidly_decreasing_space",
    "refute_dc_condition_A", "refute_hypercyclicity", "run_check",
    "run_expected_suite", "schedule_dc", "schedule_mly", "search_witness_dc",
    "seminorm", "side_from_template", "unilateral_weights",
    "verdict_exit_code",
]

__version__ = "0.1.0"
