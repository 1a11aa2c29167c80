"""Time-space diagram reconstruction for oncoming traffic.

Per-frame street-view detections are linked into tracks, converted to
camera ranges via box heights, anchored to the road link with the probe's
GPS trace, and assembled into per-vehicle distance-over-time trajectories.
"""

from .errors import ConfigError, ParseError, PipelineError, ValidationError
from .geodesy import (
    Ellipsoid,
    GeoPoint,
    InverseSolution,
    WGS84,
    geodesic_inverse,
    probe_distances,
)
from .kitti import (
    DetectionRecord,
    FrameClock,
    OxtsSample,
    format_detections,
    group_by_frame,
    load_oxts,
    parse_detections_file,
    parse_label_file,
    parse_timestamps,
    perturb_ground_truth,
    without_dontcare,
)
from .photogrammetry import (
    CameraIntrinsics,
    RangeEstimate,
    bbox_height_at_range,
    image_plane_height,
    kitti_intrinsics,
    range_from_bbox,
    range_from_height,
)
from .tracker import (
    Track,
    Tracker,
    TrackerConfig,
    TrackSnapshot,
    associate,
    iou,
    kalman_predict,
    kalman_update,
    solve_assignment,
)
from .trajectory import (
    LaneFilterConfig,
    TimeSpaceDiagram,
    TrajectoryPoint,
    build_diagram,
    compose_distance,
    diagram_from_csv,
    diagram_to_csv,
    opposite_lane_filter,
    smooth_track,
)
from .evaluation import (
    ErrorReport,
    HotaReport,
    hota,
    range_error_report,
    rmse,
    trajectory_error_report,
)
from .config import PipelineConfig, build_config, dump_config, load_config
from .pipeline import run_pipeline, write_eval_outputs, write_run_outputs
from .render import render_svg
from .version import __version__
