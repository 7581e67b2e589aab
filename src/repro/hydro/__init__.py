"""Castro-like compressible hydrodynamics on AMR patches.

2-D gamma-law Euler equations with piecewise-linear limited slopes
(minmod, MC or superbee) at the old time level, HLL/HLLC Riemann
solvers and a dimensionally unsplit forward-Euler update, all writing
into a reusable :class:`Workspace`; Castro's CFL/init_shrink/change_max
timestep control, outflow/symmetry boundaries, and the Sedov blast
problem with its Sedov–Taylor self-similar analytic solution.
"""

from .boundary import BC, apply_boundary
from .eos import GammaLawEOS
from .flux import NGHOST_REQUIRED, advance_patch
from .reconstruction import LIMITERS, interface_states, limited_slopes, mc_limiter, minmod, superbee
from .riemann import RIEMANN_SOLVERS, euler_flux, hll_flux, hllc_flux, wave_speed_estimates
from .sedov import (
    SEDOV_XI0_2D,
    SedovProblem,
    sedov_taylor_radius,
    sedov_taylor_shock_speed,
)
from .state import (
    NCOMP,
    QP,
    QRHO,
    QU,
    QV,
    UEDEN,
    UMX,
    UMY,
    URHO,
    cons_to_prim,
    mach_number,
    prim_to_cons,
)
from .timestep import TimestepController, cfl_timestep
from .workspace import Workspace

__all__ = [
    "BC",
    "apply_boundary",
    "GammaLawEOS",
    "NGHOST_REQUIRED",
    "advance_patch",
    "LIMITERS",
    "interface_states",
    "limited_slopes",
    "mc_limiter",
    "minmod",
    "superbee",
    "RIEMANN_SOLVERS",
    "euler_flux",
    "hll_flux",
    "hllc_flux",
    "wave_speed_estimates",
    "SEDOV_XI0_2D",
    "SedovProblem",
    "sedov_taylor_radius",
    "sedov_taylor_shock_speed",
    "NCOMP",
    "QP",
    "QRHO",
    "QU",
    "QV",
    "UEDEN",
    "UMX",
    "UMY",
    "URHO",
    "cons_to_prim",
    "mach_number",
    "prim_to_cons",
    "TimestepController",
    "cfl_timestep",
    "Workspace",
]
