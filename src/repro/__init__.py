"""repro — reproduction of "Modeling pre-Exascale AMR Parallel I/O
Workloads via Proxy Applications" (Godoy, Delozier, Watson; IPDPSW 2022).

Subpackages
-----------
``repro.core``
    The paper's contribution: Eq. (1)-(3) variables, ``dataset_growth``
    calibration, the AMReX->MACSio translator, regression/interpolation.
``repro.amr`` / ``repro.hydro`` / ``repro.sim``
    The AMReX/Castro substrate: block-structured AMR, the 2-D Sedov
    compressible solver, and the simulation driver.
``repro.workload``
    Analytic Sedov workload generation for paper-scale meshes.
``repro.plotfile`` / ``repro.macsio``
    The two I/O producers: Castro plotfiles (Fig. 2 layout) and the
    MACSio proxy (Fig. 3 layout).
``repro.parallel`` / ``repro.iosim``
    The rank-to-node job topology and the storage/trace substrate (GPFS,
    Lustre, and burst-buffer timing models).
``repro.platform``
    The machine registry: Platform specs (summit, frontier,
    burst-buffer, workstation) dispatching the storage-model hierarchy.
``repro.campaign`` / ``repro.analysis``
    The 47-run study machinery and the figure/table analysis layer.
``repro.faults``
    Deterministic chaos: seeded env-gated fault injection and the
    retry/backoff :class:`~repro.faults.FaultPolicy` behind the
    executor's resilience guarantees.
``repro.service``
    Prediction-as-a-service: the batched query engine over the
    predictor and the result store (``repro-serve``).
"""

__version__ = "1.1.0"

from . import (
    amr,
    analysis,
    campaign,
    core,
    faults,
    hydro,
    iosim,
    macsio,
    parallel,
    platform,
    plotfile,
    service,
    sim,
    workload,
)

__all__ = [
    "amr",
    "analysis",
    "campaign",
    "core",
    "faults",
    "hydro",
    "iosim",
    "macsio",
    "parallel",
    "platform",
    "plotfile",
    "service",
    "sim",
    "workload",
    "__version__",
]
