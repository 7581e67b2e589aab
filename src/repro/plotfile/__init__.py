"""AMReX plotfile format: writer, reader, FAB sizes, metadata.

Reproduces the Castro analysis-output structure of the paper's Fig. 2:
``<plt>NNNNN/{Header, job_info, Level_i/{Cell_H, Cell_D_xxxxx}}`` with
one ``Cell_D`` file per MPI task per level (N-to-N).
"""

from .cellh import FabLocation, build_cellh_text
from .checkpoint import CheckpointSpec, checkpoint_name, write_checkpoint
from .fab import fab_header, fab_nbytes
from .header import PLOTFILE_VERSION, build_header_text, build_job_info_text
from .reader import LevelInfo, PlotfileInfo, inspect_plotfile, list_plotfiles
from .varlist import DERIVED_VARS, N_PLOT_VARS_ALL, STATE_VARS, plot_variables
from .writer import PlotfileSpec, plotfile_name, write_plotfile

__all__ = [
    "FabLocation",
    "build_cellh_text",
    "CheckpointSpec",
    "checkpoint_name",
    "write_checkpoint",
    "fab_header",
    "fab_nbytes",
    "PLOTFILE_VERSION",
    "build_header_text",
    "build_job_info_text",
    "LevelInfo",
    "PlotfileInfo",
    "inspect_plotfile",
    "list_plotfiles",
    "DERIVED_VARS",
    "N_PLOT_VARS_ALL",
    "STATE_VARS",
    "plot_variables",
    "PlotfileSpec",
    "plotfile_name",
    "write_plotfile",
]
