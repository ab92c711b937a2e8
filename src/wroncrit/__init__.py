"""Critical points of master functions and Wronskian polynomial spaces.

Exact scalar towers (rationals, simple extensions, dual numbers) underneath
polynomial spaces with prescribed ramification; reproduction of solution
tuples; numeric and exact critical-point machinery with Schubert-calculus
counts and dual-space multiplicities on top.
"""

from .errors import *  # noqa: F401,F403  (the exception vocabulary is the API)
from .field import (
    CC,
    QQ,
    DualNum,
    DualRing,
    ExtElem,
    NumberField,
    dual_lift,
    embed_scalar,
    format_scalar,
    make_extension,
    parse_scalar,
)
from .polyring import (
    Poly,
    div_rem,
    exact_div,
    format_poly,
    gcd_monic,
    ord_at,
    parse_poly,
    partial_wronskians,
    wronskian,
    wronskian_pair,
    xgcd,
)
from .wronskian_eq import WronskianSolution, generic_candidate, solvable, solve
from .ramification import (
    BasicSituation,
    check_ram_sequence,
    exponents_at,
    exponents_at_infinity,
    exponents_of_ram,
    ram_from_exponents,
    validate_basic,
    without_base_points,
    wronskian_ram_check,
)
from .reproduction import (
    FertileTuple,
    PolySpace,
    build_space,
    is_fertile,
    mutate,
    q_witness,
    theta,
)
from .schubert import intersection_number, lr_coefficient, mult_partitions
from .multiplicity import (
    MPoly,
    MultivariateSystem,
    local_multiplicity,
    univariate_multiplicity,
)
from .bethe import (
    CriticalOrbit,
    MasterData,
    SectorSpec,
    bethe_residual,
    certify_critical,
    certify_divisibility,
    certify_tuples,
    check_admissible,
    clear_denominators,
    gamma,
    master_from_sector,
    master_value,
    sector_lengths,
    sectors_of,
    solve_critical,
    translate_master,
)

__version__ = "0.1.0"
