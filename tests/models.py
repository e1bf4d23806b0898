"""Plain models of wristlink's stages, written from README's spec, that
tests check the package against. They share no code with the package and
import nothing from it: each stage is the spec's rule written out one item
at a time, in plain Python ints and strings.

- The codec: a frame's 48 wire bits (sync 0xA5, 2-bit mode, three 10-bit
  axes, CRC-8), its CRC taken one bit at a time from the polynomial 0x07.
- The link: a list of frames in flight, one `Random(seed).random()` draw
  per send, every frame due by a step delivered at it, and one acquisition
  announcement per session.
- The window classifier: integer axis sums against the bands times w.
- The debouncer and the PIR-gated controller.
- The gesture generator: per sample, `Random(seed).randint` for x, then y,
  then z.

A verdict is its ACTION line's text, one of VERDICTS; the log lines are
those of README's "Event log".
"""
from __future__ import annotations

from collections import deque
from random import Random
from typing import NamedTuple

SYNC = 0xA5
CRC8_POLY = 0x07
ACC = 1  # the ACC mode's 2-bit tag
AP_STARTED = "Access point started. Now start watch in ACC, PPT or Synch mode."
ACQUIRING = "Acquiring data from accelerometer sensor"
# the verdicts in evaluation order: a verdict code is its place here
VERDICTS = ("ON", "OFF", "DO_NOTHING")


class Profile(NamedTuple):
    """Decision bands, window length and debounce count, as a
    CalibrationProfile holds them; DEFAULT is README's defaults."""

    on_band: tuple[int, int] = (240, 286)
    off_band: tuple[int, int] = (323, 384)
    window_size: int = 16
    debounce_n: int = 2


DEFAULT = Profile()


def digits(value: int, width: int) -> list[int]:
    """The width binary digits of value, most significant first."""
    return [(value >> k) & 1 for k in reversed(range(width))]


def crc8(bits) -> int:
    """CRC-8 of a bit sequence, most significant first: poly 0x07, init 0,
    no final xor, one bit at a time."""
    crc = 0
    for bit in bits:
        feedback = crc >> 7 ^ bit
        crc = crc << 1 & 0xFF
        if feedback:
            crc ^= CRC8_POLY
    return crc


def encode(mode: int, x: int, y: int, z: int) -> list[int]:
    """A frame's 48 wire bits: sync, then the protected mode and axes, then
    their CRC."""
    protected = digits(mode, 2) + digits(x, 10) + digits(y, 10) + digits(z, 10)
    return digits(SYNC, 8) + protected + digits(crc8(protected), 8)


def decode(bits) -> tuple[int, int, int, int] | None:
    """The (mode, x, y, z) of 48 wire bits, or None unless their sync byte
    is 0xA5 and their CRC byte that of their protected bits."""
    bits = list(bits)

    def value(lo, hi):
        return int("".join(map(str, bits[lo:hi])), 2)

    if len(bits) != 48 or value(0, 8) != SYNC or value(40, 48) != crc8(bits[8:40]):
        return None
    return value(8, 10), value(10, 20), value(20, 30), value(30, 40)


def classify(z_window, y_window, profile) -> str:
    """The verdict of one full window of z and y counts: ON when the z sum
    lies in the on band times w, else OFF when the y sum lies in the off
    band times w, else DO_NOTHING."""
    w = len(z_window)
    (on_lo, on_hi), (off_lo, off_hi) = profile.on_band, profile.off_band
    if on_lo * w <= sum(z_window) <= on_hi * w:
        return "ON"
    if off_lo * w <= sum(y_window) <= off_hi * w:
        return "OFF"
    return "DO_NOTHING"


class Debouncer:
    """Emits a verdict once it has held for n windows in a row and differs
    from the verdict emitted last; DO_NOTHING only breaks a run."""

    def __init__(self, n: int):
        self.n = n
        self.run, self.run_len, self.last = None, 0, None

    def push(self, verdict: str) -> str | None:
        if verdict == "DO_NOTHING":
            self.run, self.run_len = None, 0
            return None
        self.run_len = self.run_len + 1 if verdict == self.run else 1
        self.run = verdict
        if self.run_len < self.n or verdict == self.last:
            return None
        self.last = verdict
        return verdict


class Link:
    """The watch-to-access-point link, started and in ACC mode, logging to
    `log`: each send draws one random() from Random(seed), and a draw below
    loss_probability loses the frame; a kept frame is due at its send time
    + latency, and a step to time t delivers every frame in flight due by
    t, in send order."""

    def __init__(self, loss_probability: float, latency: int, seed: int, log: list[str]):
        self.loss, self.latency, self.rng, self.log = loss_probability, latency, Random(seed), log
        self.in_flight: list[tuple[int, int, tuple[int, int, int]]] = []
        self.sent = self.delivered = self.lost = 0
        log += ["[t=0] AP_STARTED carrier=900 MHz", AP_STARTED, "[t=0] MODE_SET ACC"]

    def send(self, t: int, xyz: tuple[int, int, int]) -> None:
        frame, self.sent = self.sent, self.sent + 1
        x, y, z = xyz
        self.log.append(f"[t={t}] FRAME_SENT frame={frame} mode=ACC x={x} y={y} z={z}")
        if self.rng.random() < self.loss:
            self.lost += 1
            self.log.append(f"[t={t}] FRAME_LOST frame={frame}")
        else:
            self.in_flight.append((t + self.latency, frame, xyz))

    def step(self, t: int) -> list[tuple[int, tuple[int, int, int]]]:
        """Deliver the frames due by t: log each, the session's first
        followed by the acquisition announcement, and return each one's
        (due time, (x, y, z))."""
        due = [item for item in self.in_flight if item[0] <= t]
        self.in_flight = [item for item in self.in_flight if item[0] > t]
        for when, frame, (x, y, z) in due:
            detail = f"frame={frame} mode=ACC x={x} y={y} z={z}"
            self.log.append(f"[t={when}] FRAME_DELIVERED {detail}")
            if self.delivered == 0:
                self.log += [f"[t={when}] ACQUIRE_ANNOUNCED", ACQUIRING]
            self.delivered += 1
        return [(when, xyz) for when, _, xyz in due]


class Controller:
    """The stages after the link, one delivery at a time, logging to `log`:
    a window over the last w deliveries; once it is full, each delivery's
    verdict (its ACTION line) through the debouncer, every emitted action
    kept in `actions`; the PIR trigger arms the controller and starts a
    fresh debouncer, and an armed controller switches the light by each
    emitted action that changes its state, with an APPLIANCE line."""

    def __init__(self, profile, log: list[str]):
        self.profile, self.log = profile, log
        self.window = deque(maxlen=profile.window_size)
        self.debouncer = Debouncer(profile.debounce_n)
        self.armed = self.powered = False
        self.actions: list[tuple[int, str]] = []
        self.windows = 0

    def trigger(self, t: int) -> None:
        self.armed, self.debouncer = True, Debouncer(self.profile.debounce_n)
        self.log.append(f"[t={t}] PIR TRIGGERED")

    def deliver(self, t: int, y: int, z: int) -> None:
        self.window.append((y, z))
        if len(self.window) < self.profile.window_size:
            return
        verdict = classify([z for _, z in self.window], [y for y, _ in self.window], self.profile)
        self.windows += 1
        self.log.append(f"[t={t}] ACTION {verdict}")
        action = self.debouncer.push(verdict)
        if action is None:
            return
        self.actions.append((t, action))  # kept armed or not
        if self.armed and self.powered != (action == "ON"):
            self.powered = action == "ON"
            self.log.append(f"[t={t}] APPLIANCE light -> {action}")


# each gesture kind's (x, y, z) draw ranges: the active axis spans the
# lowest to the highest count of its reference capture, any other axis
# that of idle wear
IDLE_RANGE = (169, 230)
GESTURE_RANGES = {
    "vertical": (IDLE_RANGE, IDLE_RANGE, (261, 284)),
    "horizontal": (IDLE_RANGE, (323, 381), IDLE_RANGE),
    "other": (IDLE_RANGE, IDLE_RANGE, IDLE_RANGE),
}


def gesture_rows(kind: str, n: int, seed: int) -> list[tuple[int, int, int, int]]:
    """The (t, x, y, z) rows of a generated gesture of n samples 20 ms
    apart from t=0, each axis one randint over its range, in x, y, z order,
    sample after sample."""
    rng = Random(seed)
    ranges = GESTURE_RANGES[kind]
    return [(20 * i, *(rng.randint(lo, hi) for lo, hi in ranges)) for i in range(n)]
