"""Half-duplex watch-to-access-point link as a discrete-event state machine.

The access point bridges the watch's RF side to the host control center. The
watch streams 3-axis frames only in ACC mode; PPT and SYNC are accepted but
inert. Frames suffer independent Bernoulli loss and a fixed per-frame latency
over virtual time (milliseconds). The nominal 900 MHz carrier is a fixed
informational label; no RF waveform is sampled at this layer.

Half-duplex rule: the access point transmits control acknowledgments only
(start and mode changes), and refuses to do so while a watch frame is in
flight, so watch->AP and AP->watch transmissions can never overlap.

The link runs on columns: its private core, `LinkSimulator._stream`, sends a
block of frames between a block of time steps and returns what happened as
a LinkBlock. Its FIFO, and the frames it leaves in flight, are columns of
due times, earliest steps, frame ids and payloads, not a tuple per frame,
and `frame_details` renders payloads from x, y and z columns, so a block
builds no per-frame container that outlives its line. It trusts its
callers, each of which checks its own input once: `transmit_sample` and
`run_until` are its one-frame and one-step uses, which render the
LinkBlock they return into the log, the link's one history, and
`controller.run_pipeline` sends a whole trace through it. All three render
a LinkBlock's lines with `delivery_lines` and `send_lines`, the one place
that says where ACQUIRE_ANNOUNCED and FRAME_LOST lines go.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from random import Random
from typing import NamedTuple

from .framing import CodecFrame, WatchMode, check_mode
from .sensor import check_int, check_number, check_seed, check_type

AP_STARTED_MESSAGE = "Access point started. Now start watch in ACC, PPT or Synch mode."
ACQUIRING_MESSAGE = "Acquiring data from accelerometer sensor"
CARRIER_LABEL = "900 MHz"


class AccessPointState(Enum):
    NOT_STARTED = "not_started"
    STARTED = "started"
    ACQUIRING = "acquiring"


class EventKind(Enum):
    AP_STARTED = "AP_STARTED"
    MODE_SET = "MODE_SET"
    FRAME_SENT = "FRAME_SENT"
    FRAME_DELIVERED = "FRAME_DELIVERED"
    FRAME_LOST = "FRAME_LOST"
    ACQUIRE_ANNOUNCED = "ACQUIRE_ANNOUNCED"


class ProtocolError(RuntimeError):
    """An operation violates the link protocol's state requirements."""


def log_lines(kind: EventKind, times, details=None) -> list[str]:
    """The log line of each of a column of events of one kind, at the given
    times and with the given details (none when details is None)."""
    text = kind.value
    if details is None:
        return [f"[t={t}] {text}" for t in times]
    return [f"[t={t}] {text} {detail}" for t, detail in zip(times, details)]


def frame_details(frame_ids, x=None, y=None, z=None) -> list[str]:
    """Details of a column of frame events: each frame id, then for
    FRAME_SENT and FRAME_DELIVERED its ACC payload, read from the x, y and
    z columns."""
    if x is None:
        return [f"frame={frame_id}" for frame_id in frame_ids]
    return [
        f"frame={frame_id} mode=ACC x={xi} y={yi} z={zi}"
        for frame_id, xi, yi, zi in zip(frame_ids, x, y, z)
    ]


def delivery_lines(block: LinkBlock, details) -> tuple[list[int], list[str]]:
    """The FRAME_DELIVERED line of each of a block's deliveries, with the
    given details, the first followed by ACQUIRE_ANNOUNCED and its
    control-center line when it announced acquisition; and, per line, the
    index of the delivery it belongs to."""
    rows = list(range(len(block.t)))
    lines = log_lines(EventKind.FRAME_DELIVERED, block.t, details)
    if block.announced:
        announce = log_lines(EventKind.ACQUIRE_ANNOUNCED, [block.t[0]]) + [ACQUIRING_MESSAGE]
        rows[1:1] = [0] * len(announce)
        lines[1:1] = announce
    return rows, lines


def send_lines(block: LinkBlock, times, details) -> tuple[list[int], list[str]]:
    """The FRAME_SENT line of each of a block's sends, at the given times and
    with the given details, then the FRAME_LOST line of each that its loss
    draw dropped; and, per line, the index of the send it belongs to."""
    dropped = [k for k, lost in enumerate(block.lost) if lost]
    lines = log_lines(EventKind.FRAME_SENT, times, details)
    lost_details = frame_details([block.first_id + k for k in dropped])
    lines += log_lines(EventKind.FRAME_LOST, [times[k] for k in dropped], lost_details)
    return [*range(len(times)), *dropped], lines


@dataclass(frozen=True)
class LinkConfig:
    loss_probability: float = 0.0
    latency: int = 10
    seed: int = 0

    def __post_init__(self):
        check_number("loss_probability", self.loss_probability, 0, 1)
        check_int("latency", self.latency, 0)  # timestamps are integer ms
        check_seed(self.seed)


class LinkBlock(NamedTuple):
    """What one send or advance of a LinkSimulator did, as columns."""

    first_id: int  # frame id of the first frame sent; the rest follow in order
    lost: list[bool]  # per frame sent: dropped by its loss draw
    # per frame delivered, in delivery order: the index of the step it
    # arrived at, its delivery time, its frame id and the payload it was
    # sent with
    step: list[int]
    t: list[int]
    frame_id: list[int]
    frame: list
    announced: bool  # the first of these deliveries announced acquisition


class LinkSimulator:
    """Single-owner discrete-event simulation of the watch/access-point link.

    All mutation goes through this object, and its history is `log`, the
    chronological, newline-ready lines of its own events across a run of
    one-frame calls.
    """

    def __init__(self, cfg: LinkConfig | None = None):
        self.cfg = LinkConfig() if cfg is None else check_type("cfg", cfg, LinkConfig)
        self.log: list[str] = []
        self.now = 0
        self.ap_state = AccessPointState.NOT_STARTED
        self.watch_mode = WatchMode.IDLE
        self.sent_count = 0
        self.delivered_count = 0
        self.lost_count = 0
        self._rng = Random(self.cfg.seed)
        # frames in flight in send order, as columns: due time, frame id
        # and payload
        self._in_flight: tuple[list[int], list[int], list] = ([], [], [])

    @property
    def frames_in_flight(self) -> int:
        return len(self._in_flight[0])

    def ap_start(self) -> None:
        """Start the access point; valid exactly once per session."""
        if self.ap_state is not AccessPointState.NOT_STARTED:
            raise ProtocolError("access point already started")
        self.ap_state = AccessPointState.STARTED
        self.log += log_lines(EventKind.AP_STARTED, [self.now], [f"carrier={CARRIER_LABEL}"])
        self.log.append(AP_STARTED_MESSAGE)

    def watch_set_mode(self, mode: WatchMode) -> None:
        """Switch the watch mode; the access point acknowledges immediately.

        Requires a started access point and a quiet channel (half-duplex:
        the acknowledgment may not overlap a frame in flight). The mode is
        a WatchMode member or its plain int wire tag (framing.check_mode).
        """
        mode = check_mode(mode)
        if self.ap_state is AccessPointState.NOT_STARTED:
            raise ProtocolError("access point not started")
        if self._in_flight[0]:
            raise ProtocolError(
                "half-duplex violation: cannot acknowledge a mode change"
                " while a frame is in flight"
            )
        self.watch_mode = mode
        self.log += log_lines(EventKind.MODE_SET, [self.now], [mode.name])

    def _stream(self, steps: list[int], sent_after: list[int], frames) -> LinkBlock:
        """Advance virtual time through `steps`, sending `frames` between them.

        The caller has checked its arguments, and nothing is checked again:
        `steps` are int times, non-decreasing and >= now; frame k goes out
        right after step sent_after[k], at that step's time, or at the
        current time when sent_after[k] is -1, and sent_after is
        non-decreasing with one entry per frame; frames are sent only by a
        started access point in ACC mode.
        Each frame sent takes the next frame id and one loss draw, in order.
        A kept frame joins the FIFO, due at its send time + latency, and
        arrives at the first step after its send whose time is >= its due
        time; time never runs backwards and latency is fixed, so frames
        arrive in send order. Frames due after the last step stay in flight.
        The first delivery of a session announces acquisition.

        No log line is written: the caller renders the returned columns with
        delivery_lines and send_lines.
        """
        p, latency, draw = self.cfg.loss_probability, self.cfg.latency, self._rng.random
        first_id = self.sent_count
        lost = [draw() < p for _ in range(len(frames))]
        self.sent_count += len(lost)
        self.lost_count += sum(lost)
        # the FIFO as columns: due time, first step it may arrive at, frame
        # id and payload; a frame sent after step i may arrive from step
        # i + 1, and one in flight from before at any step
        kept = [k for k, gone in enumerate(lost) if not gone]
        due, ids, payload = self._in_flight
        lo = [sent_after[k] + 1 for k in kept]
        # a frame sent after step i goes out at sent_at[i + 1]: that step's
        # time, or the current time for i = -1
        sent_at = [self.now, *steps]
        due = due + [sent_at[i] + latency for i in lo]
        lo = [0] * len(ids) + lo
        ids = ids + [first_id + k for k in kept]
        payload = payload + [frames[k] for k in kept]
        # due times and earliest steps both rise along the FIFO, so arrival
        # steps do too, and the frames delivered are a prefix of it
        arrival = list(map(bisect_left, repeat(steps), due, lo))
        n = bisect_left(arrival, len(steps))
        self._in_flight = (due[n:], ids[n:], payload[n:])
        self.delivered_count += n
        announced = n > 0 and self.ap_state is not AccessPointState.ACQUIRING
        if announced:
            self.ap_state = AccessPointState.ACQUIRING
        if len(steps):
            self.now = steps[-1]
        return LinkBlock(first_id, lost, arrival[:n], due[:n], ids[:n], payload[:n], announced)

    def transmit_sample(self, frame: CodecFrame) -> LinkBlock:
        """Send one accelerometer sample, as its ACC frame, at the current time.

        Requires a started access point and ACC mode. The frame is delivered
        after the configured latency, or lost with the configured
        probability, as lost[0] of the returned LinkBlock says.
        """
        check_type("frame", frame, CodecFrame)
        if self.ap_state is AccessPointState.NOT_STARTED:
            raise ProtocolError("access point not started: frame rejected")
        if self.watch_mode is not WatchMode.ACC:
            raise ProtocolError(
                f"watch mode {self.watch_mode.name} does not stream data;"
                " set ACC mode first"
            )
        if frame.mode is not WatchMode.ACC:
            raise ValueError(f"only ACC frames carry samples, got {frame.mode.name}")
        block = self._stream([], [-1], [frame])
        details = frame_details([block.first_id], [frame.x], [frame.y], [frame.z])
        self.log += send_lines(block, [self.now], details)[1]
        return block

    def run_until(self, t: int) -> LinkBlock:
        """Advance virtual time to t (an int >= now), delivering frames due;
        returns the step's LinkBlock, whose payloads are the frames sent."""
        check_int("t", t, self.now)
        block = self._stream([t], [], [])
        frames = block.frame
        details = frame_details(
            block.frame_id, [f.x for f in frames], [f.y for f in frames], [f.z for f in frames]
        )
        self.log += delivery_lines(block, details)[1]
        return block
