"""Time-space diagram reconstruction for oncoming traffic.

Per-frame street-view detections are linked into tracks, converted to
camera ranges via box heights, anchored to the road link with the probe's
GPS trace, and assembled into per-vehicle distance-over-time trajectories.

Each public name is imported from its submodule (``tsdiag.kitti``,
``tsdiag.tracker``, ``tsdiag.trajectory``, ...); importing the package
itself loads none of them.
"""

from .version import __version__
