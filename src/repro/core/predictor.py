"""Zero-run I/O size prediction ("predictive I/O sizes", Conclusions).

The paper's closing motivation: "this simplified proxy kernel-based
approach can be a good initial candidate for follow up studies on
predictive I/O sizes ... a powerful predictive tool for autotuning".
This module composes the pieces into that tool: given *only* an AMReX
input configuration (no simulation run), predict

- the per-dump and cumulative output-byte series,
- the MACSio parameters that would replay it, and
- burst times on a storage model,

using Eq. (3) for the anchor and a growth source (calibrated table,
fitted regression, or the Appendix-A guidance rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..iosim.storage import EvenSplitLaw, StorageModel
from ..parallel.topology import JobTopology
from ..platform import get_platform
from ..sim.inputs import CastroInputs
from .growth import growth_series
from .interpolation import GrowthTable, interpolate_growth, paper_guidance_growth
from .part_size import part_size_model
from .regression import CaseFeatures, LinearModel
from .translator import ProxyModel, translate

__all__ = [
    "SizePrediction",
    "predict_sizes",
    "size_series",
    "DEFAULT_F",
]

# Midpoint of the paper's empirical band — the zero-information prior.
DEFAULT_F = 24.0


def size_series(
    inputs: CastroInputs,
    nprocs: int,
    f: float,
    growth_table: Optional[GrowthTable] = None,
    regression: Optional[LinearModel] = None,
) -> Tuple[float, str, np.ndarray]:
    """The predicted per-dump byte series and the growth behind it.

    Growth resolution order: an explicit calibrated ``growth_table``
    wins, then a fitted ``regression`` model, then the paper's
    Appendix-A guidance rule.  The series is the Eq.-3 total
    (``part_size * nprocs``) grown over ``inputs.n_outputs`` dumps.
    Shared by :func:`predict_sizes` and the prediction service, so both
    produce the same floats by construction.

    Returns ``(growth, growth_source, step_bytes)``.
    """
    if growth_table is not None and len(growth_table) > 0:
        growth = interpolate_growth(growth_table, inputs.cfl, inputs.max_level)
        source = "table"
    elif regression is not None:
        growth = regression.predict(
            CaseFeatures(inputs.cfl, inputs.max_level, inputs.ncells_l0, nprocs)
        )
        source = "regression"
    else:
        growth = paper_guidance_growth(inputs.cfl, inputs.max_level + 1)
        source = "guidance"
    if growth <= 0:
        raise ValueError(f"growth source produced non-positive growth {growth}")
    base = part_size_model(f, inputs.n_cell[0], inputs.n_cell[1], nprocs) * nprocs
    return float(growth), source, growth_series(base, growth, inputs.n_outputs)


@dataclass(frozen=True)
class SizePrediction:
    """Predicted I/O of one configuration, with provenance."""

    inputs: CastroInputs
    nprocs: int
    f: float
    growth: float
    growth_source: str  # "table" | "regression" | "guidance"
    step_bytes: np.ndarray
    cumulative_bytes: np.ndarray
    burst_seconds: Optional[np.ndarray] = None
    machine: Optional[str] = None  # set when a platform drove the timing

    @property
    def total_bytes(self) -> float:
        return float(self.cumulative_bytes[-1])

    def macsio_params(self):
        """The Listing-1 parameters that replay this prediction."""
        model = ProxyModel(f=self.f, dataset_growth=self.growth)
        return translate(self.inputs, self.nprocs, model)

    def summary(self) -> str:
        on = f" on {self.machine}" if self.machine else ""
        return (
            f"predicted {self.inputs.n_cell[0]}x{self.inputs.n_cell[1]} "
            f"maxlev={self.inputs.max_level} cfl={self.inputs.cfl} "
            f"np={self.nprocs}{on}: total {self.total_bytes:.4g} B over "
            f"{len(self.step_bytes)} dumps "
            f"(f={self.f:.2f}, g={self.growth:.5f} from {self.growth_source})"
        )


def predict_sizes(
    inputs: CastroInputs,
    nprocs: int,
    f: float = DEFAULT_F,
    growth_table: Optional[GrowthTable] = None,
    regression: Optional[LinearModel] = None,
    storage: Optional[StorageModel] = None,
    topology: Optional[JobTopology] = None,
    platform=None,
) -> SizePrediction:
    """Predict the output-size series of an unseen configuration.

    Growth comes from :func:`size_series` (calibrated table, then
    regression, then guidance).  ``f`` defaults to the band midpoint;
    pass a fitted value when one is available for the mesh family.

    ``platform`` (a registry name or :class:`~repro.platform.Platform`)
    is the zero-run machine axis: it supplies the storage model
    (deterministic, ``variability=0`` so machines compare apples to
    apples) and the default rank packing, so the same configuration can
    be predicted on every registered machine without a single run.
    Explicit ``storage``/``topology`` arguments still win; bursts are
    timed by :class:`~repro.iosim.storage.EvenSplitLaw`, so a noisy
    ``storage`` or a ``topology`` of another rank count raises a named
    ``ValueError``.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    plat = get_platform(platform) if platform is not None else None
    machine = None
    if storage is None and plat is not None:
        storage = plat.storage_model(variability=0.0)
        machine = plat.name  # label only timings the platform produced
    growth, source, steps = size_series(inputs, nprocs, f, growth_table, regression)
    prediction_burst = None
    if storage is not None:
        if topology is None:
            topology = get_platform(plat).default_topology(nprocs)
        law = EvenSplitLaw(storage, nprocs, topology.node_map())
        prediction_burst = law.burst_seconds(steps)
    return SizePrediction(
        inputs=inputs,
        nprocs=nprocs,
        f=f,
        growth=growth,
        growth_source=source,
        step_bytes=steps,
        cumulative_bytes=np.cumsum(steps),
        burst_seconds=prediction_burst,
        machine=machine,
    )
