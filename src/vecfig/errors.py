"""Exception types shared across the extraction pipeline.

There is one class per figure status an extraction failure maps to, and
``WorkerDied``, which ``vecfig extract`` tells apart by its exit code.
Within one status the message tells the reasons apart.
"""

from __future__ import annotations

from enum import Enum


class Status(Enum):
    """Outcome of one figure's extraction, as written to its report."""
    OK = "ok"
    NO_AXES = "no_axes"
    NONLINEAR_SCALE = "nonlinear_scale"
    TOO_FEW_TICKS = "too_few_ticks"
    RASTER_BODY = "raster_body"
    NO_DATA_GLYPHS = "no_data_glyphs"
    PARSE_ERROR = "parse_error"
    WRITE_ERROR = "write_error"


class VecfigError(Exception):
    """Status ``parse_error``: the source is not a well-formed SVG, or a
    transform or path in it cannot be used; also every failure of project,
    filter, template or truth input.  Base class of the others."""
    status = Status.PARSE_ERROR


class NoAxesFound(VecfigError):
    """Status ``no_axes``: no qualifying vertical/horizontal axis pair."""
    status = Status.NO_AXES


class TooFewTicks(VecfigError):
    """Status ``too_few_ticks``: fewer than two tick-label pairs on an axis,
    or all their tick positions equal."""
    status = Status.TOO_FEW_TICKS


class NonlinearScale(VecfigError):
    """Status ``nonlinear_scale``: the axis fit has no usable linear scale."""
    status = Status.NONLINEAR_SCALE


class NoDataGlyphs(VecfigError):
    """Status ``no_data_glyphs``: no circle glyph inside the plot interior."""
    status = Status.NO_DATA_GLYPHS


class WorkerDied(VecfigError):
    """A batch's worker process died, so the batch stopped unfinished."""
