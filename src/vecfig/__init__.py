"""vecfig: recover data points from vector (SVG) scatter figures."""

from .axis_detection import (AxisCalibration, AxisSide, PlotBox, TickLabel,
                             TickMark, calibrate_axis, detect_plot_box,
                             detect_ticks, match_ticks_to_labels,
                             parse_numeric_label)
from .config import DEFAULT_CONFIG, PipelineConfig, load_config
from .evaluate import EvalRecord, evaluate_figure, evaluate_output_tree
from .pipeline import (CorpusProject, ExtractionReport, Status, enumerate_figures,
                       extract_figure, make_project, run_project, scan_project,
                       write_csv)
from .point_extraction import (DataPoint, RadiusCluster, detect_raster_body,
                               map_to_data, select_data_glyphs)
from .svg_model import (AffineTransform, FigureDocument, Markers, Point, Rect,
                        Segments, TextRun, compose_text_runs, flatten_path,
                        parse_svg)
from .synth import (AxisStyle, SyntheticSpec, build_synthetic_project,
                    generate_scatter_svg)

__version__ = "0.1.0"
