"""AMReX inputs-file parser (the ``key = value`` format of Listing 2).

Parses Castro/AMReX configuration files into a typed mapping, exposing
the Table-I parameters the paper varies (``amr.max_step``, ``amr.n_cell``,
``amr.max_level``, ``amr.plot_int``, ``castro.cfl``) plus the rest of the
Listing-2 knobs with Castro's defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["InputsFile", "CastroInputs", "parse_inputs", "DEFAULT_SEDOV_INPUTS"]

Scalar = Union[int, float, str]


def _autotype(token: str) -> Scalar:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


class InputsFile:
    """A parsed inputs file: dotted keys -> list of typed tokens."""

    def __init__(self, table: Optional[Dict[str, List[Scalar]]] = None) -> None:
        self._table: Dict[str, List[Scalar]] = dict(table or {})

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._table

    def keys(self):
        return self._table.keys()

    def raw(self, key: str) -> List[Scalar]:
        return list(self._table[key])

    def set(self, key: str, *values: Scalar) -> None:
        self._table[key] = list(values)

    # typed getters ----------------------------------------------------
    def get_int(self, key: str, default: Optional[int] = None) -> int:
        return int(self._get_scalar(key, default))

    def get_float(self, key: str, default: Optional[float] = None) -> float:
        return float(self._get_scalar(key, default))

    def get_str(self, key: str, default: Optional[str] = None) -> str:
        return str(self._get_scalar(key, default))

    def get_int_pair(self, key: str, default: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
        if key not in self._table:
            if default is None:
                raise KeyError(key)
            return default
        vals = self._table[key]
        if len(vals) == 1:
            return (int(vals[0]), int(vals[0]))
        return (int(vals[0]), int(vals[1]))

    def get_float_pair(
        self, key: str, default: Optional[Tuple[float, float]] = None
    ) -> Tuple[float, float]:
        if key not in self._table:
            if default is None:
                raise KeyError(key)
            return default
        vals = self._table[key]
        if len(vals) == 1:
            return (float(vals[0]), float(vals[0]))
        return (float(vals[0]), float(vals[1]))

    def _get_scalar(self, key: str, default) :
        if key not in self._table:
            if default is None:
                raise KeyError(key)
            return default
        vals = self._table[key]
        if not vals:
            raise ValueError(f"key {key!r} has no value")
        return vals[0]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Write back in inputs-file syntax."""
        lines = [f"{k} = {' '.join(str(v) for v in vs)}" for k, vs in self._table.items()]
        return "\n".join(lines) + "\n"


def parse_inputs(text: str) -> InputsFile:
    """Parse inputs-file text (``#`` comments, ``key = v1 v2 ...``)."""
    table: Dict[str, List[Scalar]] = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed inputs line (no '='): {raw_line!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        values = [_autotype(tok) for tok in rhs.split()]
        table[key] = values
    return InputsFile(table)


# The paper's Listing 2 baseline (Appendix B), as defaults.
DEFAULT_SEDOV_INPUTS = """
max_step = 500
stop_time = 0.1
geometry.is_periodic = 0 0
geometry.coord_sys = 0
geometry.prob_lo = 0 0
geometry.prob_hi = 1 1
amr.n_cell = 32 32
castro.lo_bc = 2 2
castro.hi_bc = 2 2
castro.do_hydro = 1
castro.do_react = 0
castro.cfl = 0.5
castro.init_shrink = 0.01
castro.change_max = 1.1
castro.sum_interval = 1
amr.max_level = 3
amr.ref_ratio = 2 2 2 2
amr.regrid_int = 2
amr.blocking_factor = 8
amr.max_grid_size = 256
amr.check_file = sedov_2d_cyl_in_cart_chk
amr.check_int = 20
amr.plot_file = sedov_2d_cyl_in_cart_plt
amr.plot_int = 20
amr.derive_plot_vars = ALL
"""


@dataclass(frozen=True)
class CastroInputs:
    """Typed view of the inputs a Sedov run needs.

    Field names follow the inputs-file keys (Table I names included).
    """

    max_step: int = 500
    stop_time: float = 0.1
    n_cell: Tuple[int, int] = (32, 32)
    max_level: int = 3
    ref_ratio: int = 2
    regrid_int: int = 2
    blocking_factor: int = 8
    max_grid_size: int = 256
    plot_file: str = "sedov_2d_cyl_in_cart_plt"
    plot_int: int = 20
    check_file: str = "sedov_2d_cyl_in_cart_chk"
    check_int: int = 20
    derive_plot_vars: str = "ALL"
    cfl: float = 0.5
    init_shrink: float = 0.01
    change_max: float = 1.1
    lo_bc: Tuple[int, int] = (2, 2)
    hi_bc: Tuple[int, int] = (2, 2)
    prob_lo: Tuple[float, float] = (0.0, 0.0)
    prob_hi: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self) -> None:
        if self.plot_int < 1:
            raise ValueError("plot_int must be >= 1")
        if self.max_step < 0:
            raise ValueError("max_step must be >= 0")
        # a step ramp that is zero, negative or NaN gives a run whose time
        # never advances, runs backwards, or stops after one step
        for name in ("cfl", "init_shrink", "change_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def nlevels(self) -> int:
        return self.max_level + 1

    @property
    def ncells_l0(self) -> int:
        """Base-level cell count Nx*Ny — the paper's ``ncells`` in Eq. (1)."""
        return self.n_cell[0] * self.n_cell[1]

    @property
    def n_outputs(self) -> int:
        """Plotfile dumps in a run: step 0 plus every plot_int steps."""
        return self.max_step // self.plot_int + 1

    @staticmethod
    def from_inputs(inp: InputsFile) -> "CastroInputs":
        """Build from a parsed inputs file, Listing-2 defaults elsewhere."""
        return CastroInputs(
            max_step=inp.get_int("max_step", 500),
            stop_time=inp.get_float("stop_time", 0.1),
            n_cell=inp.get_int_pair("amr.n_cell", (32, 32)),
            max_level=inp.get_int("amr.max_level", 3),
            ref_ratio=int(inp.raw("amr.ref_ratio")[0]) if "amr.ref_ratio" in inp else 2,
            regrid_int=inp.get_int("amr.regrid_int", 2),
            blocking_factor=inp.get_int("amr.blocking_factor", 8),
            max_grid_size=inp.get_int("amr.max_grid_size", 256),
            plot_file=inp.get_str("amr.plot_file", "sedov_2d_cyl_in_cart_plt"),
            plot_int=inp.get_int("amr.plot_int", 20),
            check_file=inp.get_str("amr.check_file", "sedov_2d_cyl_in_cart_chk"),
            check_int=inp.get_int("amr.check_int", 20),
            derive_plot_vars=inp.get_str("amr.derive_plot_vars", "ALL"),
            cfl=inp.get_float("castro.cfl", 0.5),
            init_shrink=inp.get_float("castro.init_shrink", 0.01),
            change_max=inp.get_float("castro.change_max", 1.1),
            lo_bc=inp.get_int_pair("castro.lo_bc", (2, 2)),
            hi_bc=inp.get_int_pair("castro.hi_bc", (2, 2)),
            prob_lo=inp.get_float_pair("geometry.prob_lo", (0.0, 0.0)),
            prob_hi=inp.get_float_pair("geometry.prob_hi", (1.0, 1.0)),
        )

    @staticmethod
    def sedov_default() -> "CastroInputs":
        return CastroInputs.from_inputs(parse_inputs(DEFAULT_SEDOV_INPUTS))

    def table_i_parameters(self) -> Dict[str, object]:
        """The Table-I subset the paper varies."""
        return {
            "amr.max_step": self.max_step,
            "amr.n_cell": self.n_cell,
            "amr.max_level": self.max_level,
            "amr.plot_int": self.plot_int,
            "castro.cfl": self.cfl,
        }
