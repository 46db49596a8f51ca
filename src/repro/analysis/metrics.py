"""The paper's metric definitions (Table 1).

* **Load imbalance**: "the relative standard deviation around the average
  number of accesses per node" — reported as a percentage.
* **Interconnect load**: "the average of the percentage of the bandwidth
  used on the most loaded interconnect links during each second" —
  our epochs play the role of the seconds.
* **Imbalance level**: the classification of section 3.5.2 — "low" below
  85% first-touch imbalance, "high" above 130%, "moderate" in between.
"""

from __future__ import annotations


#: Class boundaries of section 3.5.2, on first-touch imbalance.
LOW_THRESHOLD = 0.85
HIGH_THRESHOLD = 1.30


def classify_imbalance(first_touch_imbalance: float) -> str:
    """The paper's low / moderate / high classification."""
    if first_touch_imbalance < LOW_THRESHOLD:
        return "low"
    if first_touch_imbalance > HIGH_THRESHOLD:
        return "high"
    return "moderate"
