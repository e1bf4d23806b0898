"""Bundled demo traces: the reference wrist captures as ready-to-run fixtures.

Three fixtures, one per classifier verdict:

    on       vertical wrist motion on the z axis (appliance turns on)
    off      horizontal wrist motion on the y axis (appliance turns off)
    nothing  idle wear, no intended action

Each fixture is a CSV trace under `wristlink/data`, and `demo_trace` loads
that file. Inactive axes of the on/off fixtures are pinned to 200, which
falls outside both decision bands. Timestamps run at the default 20 ms
sample period.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .sensor import GestureKind, Trace, check_type, load_trace

DEMO_LABELS = {
    "on": GestureKind.VERTICAL_UP_DOWN,
    "off": GestureKind.HORIZONTAL,
    "nothing": GestureKind.OTHER,
}
DEMO_NAMES = tuple(DEMO_LABELS)


def demo_csv_path(name: str) -> Path:
    """Filesystem path of a bundled fixture CSV."""
    if check_type("name", name, str) not in DEMO_LABELS:
        raise ValueError(f"unknown demo trace {name!r}; choose from {DEMO_NAMES}")
    return Path(str(resources.files("wristlink").joinpath("data", f"demo_{name}.csv")))


def demo_trace(name: str) -> Trace:
    """Load one of the bundled fixtures ('on', 'off', or 'nothing'), labeled."""
    return load_trace(demo_csv_path(name), label=DEMO_LABELS[name])
