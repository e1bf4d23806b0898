"""Bundled demo traces: the reference wrist captures as ready-to-run fixtures.

Three fixtures, one per classifier verdict:

    on       vertical wrist motion on the z axis (appliance turns on)
    off      horizontal wrist motion on the y axis (appliance turns off)
    nothing  idle wear, no intended action

Inactive axes of the on/off fixtures are pinned to 200, which falls outside
both decision bands. Timestamps run at the default 20 ms sample period. The
same fixtures ship as CSV files under `wristlink/data` for direct CLI use.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

from .sensor import (
    HORIZONTAL_Y_COUNTS,
    IDLE_COUNTS,
    SAMPLE_PERIOD_MS,
    VERTICAL_Z_COUNTS,
    AccelSample,
    GestureKind,
    Trace,
)

INACTIVE_COUNT = 200

DEMO_NAMES = ("on", "off", "nothing")


def demo_trace(name: str) -> Trace:
    """Build one of the bundled fixtures ('on', 'off', or 'nothing')."""
    if name == "on":
        samples = [
            AccelSample(t=i * SAMPLE_PERIOD_MS, x=INACTIVE_COUNT, y=INACTIVE_COUNT, z=z)
            for i, z in enumerate(VERTICAL_Z_COUNTS)
        ]
        label = GestureKind.VERTICAL_UP_DOWN
    elif name == "off":
        samples = [
            AccelSample(t=i * SAMPLE_PERIOD_MS, x=INACTIVE_COUNT, y=y, z=INACTIVE_COUNT)
            for i, y in enumerate(HORIZONTAL_Y_COUNTS)
        ]
        label = GestureKind.HORIZONTAL
    elif name == "nothing":
        samples = [
            AccelSample(t=i * SAMPLE_PERIOD_MS, x=v, y=v, z=v)
            for i, v in enumerate(IDLE_COUNTS)
        ]
        label = GestureKind.OTHER
    else:
        raise ValueError(f"unknown demo trace {name!r}; choose from {DEMO_NAMES}")
    return Trace(tuple(samples), label=label)


def demo_csv_path(name: str) -> Path:
    """Filesystem path of a bundled fixture CSV."""
    if name not in DEMO_NAMES:
        raise ValueError(f"unknown demo trace {name!r}; choose from {DEMO_NAMES}")
    return Path(str(resources.files("wristlink").joinpath("data", f"demo_{name}.csv")))
