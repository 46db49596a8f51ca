"""Analysis layer: metric definitions and table rendering."""


from repro.analysis.metrics import classify_imbalance
from repro.analysis.tables import format_percent, format_table


class TestClassification:
    """Section 3.5.2's boundaries: <85% low, >130% high."""

    def test_low(self):
        assert classify_imbalance(0.0) == "low"
        assert classify_imbalance(0.84) == "low"

    def test_moderate(self):
        assert classify_imbalance(0.85) == "moderate"
        assert classify_imbalance(1.13) == "moderate"
        assert classify_imbalance(1.30) == "moderate"

    def test_high(self):
        assert classify_imbalance(1.31) == "high"
        assert classify_imbalance(2.53) == "high"


class TestFormatting:
    def test_format_percent(self):
        assert format_percent(0.253) == "25%"
        assert format_percent(0.253, signed=True) == "+25%"
        assert format_percent(-0.1, signed=True) == "-10%"

    def test_table_alignment(self):
        text = format_table(
            ["name", "value"],
            [["a", 1], ["longer", 22]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        data = [l for l in lines if l.startswith(("a", "longer"))]
        assert len(data) == 2
        # Columns align: 'value' entries start at the same offset.
        assert data[0].index("1") == data[1].index("2")

    def test_table_without_title(self):
        text = format_table(["h"], [["x"]])
        assert text.splitlines()[0] == "h"
