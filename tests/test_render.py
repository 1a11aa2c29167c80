from xml.dom import minidom

from tsdiag.render import render_svg
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
