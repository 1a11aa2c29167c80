import os
import shutil
import subprocess
import sys
from xml.dom import minidom

from tsdiag.render import render_svg
from tsdiag.synth import write_fixture
from tsdiag.trajectory import TimeSpaceDiagram, TrajectoryPoint


def diagram_with(tracks: dict[int, list[tuple[float, float]]],
                 probe=None) -> TimeSpaceDiagram:
    vehicles = {
        tid: [TrajectoryPoint(time_s=t, probe_distance_m=0.0, camera_range_m=d)
              for t, d in points]
        for tid, points in tracks.items()
    }
    return TimeSpaceDiagram(
        link_length_m=100.0,
        probe_trajectory=probe or [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)],
        vehicle_trajectories=vehicles,
    )


class TestRenderSvg:
    def test_empty_vehicle_set_probe_only(self):
        svg = render_svg(diagram_with({}))
        assert svg.count("<polyline") == 1
        assert "time [s]" in svg
        assert "link distance [m]" in svg
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")

    def test_overlay_counts_every_polyline(self):
        predicted = diagram_with({1: [(0.0, 5.0), (1.0, 9.0)],
                                  2: [(0.5, 50.0), (1.5, 40.0)]})
        reference = diagram_with({7: [(0.0, 6.0), (1.0, 10.0)]})
        svg = render_svg(predicted, reference)
        assert svg.count("<polyline") == 2 + 1 + 2  # pred tracks + ref track + 2 probes

    def test_byte_identical_for_identical_input(self):
        diagram = diagram_with({1: [(0.0, 5.0), (1.0, 9.0)]})
        assert render_svg(diagram) == render_svg(diagram)

    def test_title_rendered_when_given(self):
        svg = render_svg(diagram_with({}), title="sequence-0004")
        assert "sequence-0004" in svg

    def test_title_with_markup_characters_is_escaped(self):
        svg = render_svg(diagram_with({}), title="A&B <seq>")
        document = minidom.parseString(svg)
        texts = ["".join(n.data for n in t.childNodes)
                 for t in document.getElementsByTagName("text")]
        assert "A&B <seq>" in texts

    def test_negative_distances_still_render(self):
        svg = render_svg(diagram_with({1: [(0.0, -5.0), (1.0, 9.0)]}))
        assert svg.count("<polyline") == 2

    def test_time_axis_spans_the_drawn_times(self):
        # a sequence timed from 1000 s is drawn across the whole plot, not
        # squeezed into its last hundredth
        times = [1000.0 + 0.1 * k for k in range(100)]
        diagram = diagram_with({1: [(t, 30.0) for t in times]},
                               probe=[(t, 0.5 * k) for k, t in enumerate(times)])
        document = minidom.parseString(render_svg(diagram))
        xs = [float(pair.split(",")[0])
              for line in document.getElementsByTagName("polyline")
              for pair in line.getAttribute("points").split()]
        assert (min(xs), max(xs)) == (70.0, 870.0)
        tick_labels = [float(t.firstChild.data) for t in document.getElementsByTagName("text")
                       if t.getAttribute("y") == "583"]
        assert tick_labels and tick_labels[0] >= 1000.0


def test_time_span_of_one_ulp_renders(tmp_path):
    # two fixes stamped one ulp apart at 1e22 s: the tick step is under half
    # an ulp there, so a running sum of steps would never pass the last tick.
    # The run is a child process with its address space capped and a
    # timeout, so a tick list that grows without bound fails the test
    # rather than hanging the suite.
    config_path = write_fixture(str(tmp_path / "scene"))
    oxts = tmp_path / "oxts"
    oxts.mkdir()
    for name in sorted(os.listdir(tmp_path / "scene" / "oxts"))[:2]:
        shutil.copy(tmp_path / "scene" / "oxts" / name, oxts / name)
    (tmp_path / "timestamps.txt").write_text("1e22\n1.0000000000000002e22\n")
    (tmp_path / "detections.txt").write_text("")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from tsdiag.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", script, "run", config_path, "--oxts", str(oxts),
         "--timestamps", str(tmp_path / "timestamps.txt"),
         "--detections", str(tmp_path / "detections.txt"), "--labels", "",
         "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    document = minidom.parse(str(tmp_path / "out" / "diagram.svg"))
    assert len(document.getElementsByTagName("polyline")) == 1  # the probe alone
    # every tick of the span reads 1e+22, and that label is drawn once
    assert [t.firstChild.data for t in document.getElementsByTagName("text")
            if t.getAttribute("y") == "583"] == ["1e+22"]
