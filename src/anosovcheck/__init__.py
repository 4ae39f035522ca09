"""Numerical certification of Anosov-type properties in SL(n,R).

The package realizes the chamber/flag geometry of the symmetric space of
SL(n,R) and uses it to certify matrix-generated free subgroups at desk
scale: uniform regularity (uru), Morse behavior, the boundary map's
antipodality and conicality (limit), and expansion at the flag limit
set (anosov), all as margin-carrying reports.
"""

from .chamber import (
    FaceType,
    ThetaSpec,
    face_boundary_distance,
    iota_face,
    theta_membership,
)
from .dynamics import conical_check
from .errors import (
    BudgetExceeded,
    IllConditioned,
    PingPongFailed,
    TransversalityTooSmall,
    VanishingGap,
)
from .flags import (
    Flag,
    act_on_flag,
    antipodality_margin,
    attractive_flag,
    expansion_factor,
    flag_distance,
    transversality_margin,
)
from .reports import PropertyReport
from .subgroup import (
    FreeGroupPresentation,
    anosov_check,
    limit_report,
    morse_check,
    schottky_build,
    symmetric_square,
    uru_check,
)
from .symmspace import (
    DiamondRef,
    WeylConeRef,
    cartan_vector,
    cone_query,
    diamond_query,
    make_diamond,
    make_parallel_set,
    relative_flag,
)

__all__ = [name for name in dir() if not name.startswith("_")]
