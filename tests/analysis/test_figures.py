"""ASCII figure rendering."""


from repro.analysis.figures import render_bars, render_grouped_bars


class TestRenderBars:
    def test_every_label_present(self):
        text = render_bars({"cg.C": 4.58, "mg.D": 1.12}, title="Fig")
        assert "cg.C" in text and "mg.D" in text
        assert "Fig" in text

    def test_values_scaled_to_percent(self):
        text = render_bars({"a": 0.5}, scale=100.0)
        assert "+50%" in text

    def test_longest_bar_gets_full_width(self):
        text = render_bars({"big": 1.0, "small": 0.25}, width=20)
        lines = [l for l in text.splitlines() if "#" in l]
        big = next(l for l in lines if l.startswith("big"))
        small = next(l for l in lines if l.startswith("small"))
        assert big.count("#") == 20
        assert small.count("#") == 5

    def test_negative_values_grow_left(self):
        text = render_bars({"up": 0.5, "down": -0.5}, width=10)
        up = next(l for l in text.splitlines() if l.startswith("up"))
        down = next(l for l in text.splitlines() if l.startswith("down"))
        assert up.index("#") > up.index("|")
        assert down.index("#") < down.index("|")

    def test_empty(self):
        assert render_bars({}, title="T") == "T"

    def test_zero_values_render(self):
        text = render_bars({"a": 0.0, "b": 0.0})
        assert "+0%" in text


class TestRenderGroupedBars:
    def test_groups_and_series(self):
        text = render_grouped_bars(
            {"cg.C": {"FT": 4.4, "R4K": 2.2}, "mg.D": {"FT": 1.1, "R4K": 0.3}}
        )
        assert "cg.C" in text and "mg.D" in text
        assert text.count("FT") == 2
        assert text.count("R4K") == 2

    def test_negative_series_marked(self):
        text = render_grouped_bars({"x": {"FT": -0.5, "R4K": 0.5}})
        ft_line = next(l for l in text.splitlines() if "FT" in l)
        assert "-" in ft_line.split("|")[1]

    def test_empty(self):
        assert render_grouped_bars({}) == ""
