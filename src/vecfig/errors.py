"""Exception types shared across the extraction pipeline."""

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
    """Base class for all extraction errors.

    ``status`` is the figure status an error raised during extraction maps to.
    """
    status = Status.PARSE_ERROR


# --- SVG parsing ---

class MalformedXml(VecfigError):
    """Input bytes are not well-formed XML."""


class NotSvg(VecfigError):
    """XML root element is not <svg>."""


class DegenerateTransform(VecfigError):
    """A transform with zero determinant was encountered."""


class PathSyntax(VecfigError):
    """Path data string does not follow the path grammar."""


# --- Axis detection / calibration ---

class NoAxesFound(VecfigError):
    """No qualifying vertical/horizontal axis pair in the figure."""
    status = Status.NO_AXES


class InsufficientMatches(VecfigError):
    """Fewer than two tick-label pairs matched on an axis."""
    status = Status.TOO_FEW_TICKS


class TooFewTicks(VecfigError):
    """Fewer than two tick-label pairs supplied to calibration."""
    status = Status.TOO_FEW_TICKS


class CollocatedTicks(VecfigError):
    """All tick positions coincide; no slope can be fitted."""
    status = Status.TOO_FEW_TICKS


class NonlinearScale(VecfigError):
    """Least-squares residual exceeds the linearity gate (e.g. log axis)."""
    status = Status.NONLINEAR_SCALE


# --- Point extraction ---

class NoDataGlyphs(VecfigError):
    """No circle glyph lies inside the plot interior."""
    status = Status.NO_DATA_GLYPHS


# --- Corpus pipeline ---

class TemplateGroupOutOfRange(VecfigError):
    """makeProject template references a capture group the filter lacks."""


class DestinationCollision(VecfigError):
    """Two input files map to the same project destination."""


class BadFilter(VecfigError):
    """Figure filter regex has no capture group for the figure index."""


class IoFailure(VecfigError):
    """Output could not be written."""
    status = Status.WRITE_ERROR


class WorkerDied(VecfigError):
    """A batch's worker process died, so the batch stopped unfinished."""


# --- Evaluation ---

class MissingTruth(VecfigError):
    """No ground-truth file available for a figure under evaluation."""
