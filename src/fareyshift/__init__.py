"""Exact symbolic dynamics for the interval map x -> |1 - 1/x| on [0, infinity].

The package namespace holds the names the README's quick start and the
benchmark's checks import; everything else lives in the submodules.
"""

from .exact import INFINITE_DISTANCE, ExtendedRational
from .coding import (
    CodeStream,
    admissible_words,
    cylinder,
    itinerary,
    periodic_point,
    point_of_code,
)
from .conjugacy import h_rational
from .entropy import mixing_certificate
from .scrambled import (
    EventOutcome,
    ScheduleEvent,
    mu_code,
    schedule_events,
    verify_scrambling,
)

__version__ = "0.1.0"
