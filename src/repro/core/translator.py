"""Listing 1: translating AMReX-Castro inputs into MACSio arguments.

The functional form the paper proposes::

    jsrun -n nproc macsio
        --interface miftmpl
        --parallel_file_mode MIF nproc
        --num_dumps max_step / plot_int
        --part_size f(amr.n_cell)
        --avg_num_parts 1
        --vars_per_part 1
        --compute_time f(platform, all_inputs)
        --meta_size f(all_inputs)
        --dataset_growth f(amr.n_cell, castro.cfl, amr.max_level, ...)

``part_size`` comes from Eq. (3); ``dataset_growth`` from calibration
(:mod:`repro.core.growth`) or interpolation
(:mod:`repro.core.interpolation`); ``compute_time`` and ``meta_size``
are "runtime" degrees of freedom determined after collecting runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..macsio.miftmpl import json_inflation
from ..macsio.params import MacsioParams, format_argv
from ..sim.inputs import CastroInputs
from .part_size import part_size_model

__all__ = ["ProxyModel", "translate"]


@dataclass(frozen=True)
class ProxyModel:
    """The fitted model parameters for one AMReX configuration.

    ``anchor_output=True`` applies the paper's second correction: the
    Eq.-3 size is "calibrated against the simulated expected output size
    multiplied by a correction factor due to its approximate nature in
    MACSio" — for the miftmpl interface, JSON text inflates each binary
    double, so the nominal request is deflated by that factor to make
    the *realized* output match the Eq.-3 target.
    """

    f: float  # Eq. (3) correction factor
    dataset_growth: float  # calibrated or interpolated
    compute_time: float = 0.0  # seconds between dumps (platform fit)
    meta_size: int = 0  # extra metadata bytes per task
    anchor_output: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f) and self.f > 0):
            raise ValueError(
                f"correction factor f must be positive and finite (got {self.f})"
            )
        if self.dataset_growth <= 0:
            raise ValueError("dataset_growth must be positive")


def translate(inputs: CastroInputs, nprocs: int, model: ProxyModel) -> MacsioParams:
    """AMReX inputs + fitted model -> MACSio parameters (Listing 1)."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    num_dumps = inputs.n_outputs
    part = part_size_model(model.f, inputs.n_cell[0], inputs.n_cell[1], nprocs)
    if model.anchor_output:
        part /= json_inflation()
    return MacsioParams(
        interface="miftmpl",
        parallel_file_mode="MIF",
        file_count=nprocs,  # N-to-N, the AMReX default pattern
        num_dumps=num_dumps,
        part_size=part,
        avg_num_parts=1.0,
        vars_per_part=1,
        compute_time=model.compute_time,
        meta_size=model.meta_size,
        dataset_growth=model.dataset_growth,
    )


def command_line(inputs: CastroInputs, nprocs: int, model: ProxyModel) -> str:
    """The jsrun command the model would emit for the real MACSio."""
    params = translate(inputs, nprocs, model)
    return f"jsrun -n {nprocs} macsio " + " ".join(format_argv(params, nprocs))


__all__.append("command_line")
