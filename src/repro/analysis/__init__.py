"""Analysis layer: load balance, comparisons, report formatting."""

from .burstiness import BurstinessStats, analyze_schedule, duty_cycle, interarrival_cv
from .compare import (
    MachineBurstRow,
    classify_linearity,
    compare_machines,
    compare_record_to_macsio,
    format_machine_comparison,
    record_burst_seconds,
)
from .loadbalance import (
    active_fraction,
    gini_coefficient,
    imbalance_factor,
    imbalance_report,
    per_level_loads,
)
from .report import format_comparison, format_series, format_table, human_bytes

__all__ = [
    "BurstinessStats",
    "analyze_schedule",
    "duty_cycle",
    "interarrival_cv",
    "MachineBurstRow",
    "classify_linearity",
    "compare_machines",
    "compare_record_to_macsio",
    "format_machine_comparison",
    "record_burst_seconds",
    "active_fraction",
    "gini_coefficient",
    "imbalance_factor",
    "imbalance_report",
    "per_level_loads",
    "format_comparison",
    "format_series",
    "format_table",
    "human_bytes",
]
