"""The checkpoint-scheduling policy study of Section 4.6.2: an abstract
traffic model driving the scheduler's own policies
(:mod:`repro.ft.ckpt_scheduler`)."""

from .schemes import SCHEMES, Scheme, scheme
from .simulator import SchedOutcome, simulate

__all__ = ["SCHEMES", "Scheme", "scheme", "SchedOutcome", "simulate"]
