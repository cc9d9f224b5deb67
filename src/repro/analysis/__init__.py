"""Analysis helpers: derived metrics and report tables."""

from .metrics import breakdown, mops
from .report import Report, format_table

__all__ = [
    "breakdown",
    "mops",
    "Report",
    "format_table",
]
