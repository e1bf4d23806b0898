"""Half-duplex watch-to-access-point link as a discrete-event state machine.

The access point bridges the watch's RF side to the host control center. The
watch streams 3-axis frames only in ACC mode; PPT and SYNC are accepted but
inert. Frames suffer independent Bernoulli loss and a fixed per-frame latency
over virtual time (milliseconds). The nominal 900 MHz carrier is a fixed
informational label; no RF waveform is sampled at this layer.

Half-duplex rule: the access point transmits control acknowledgments only
(start and mode changes), and refuses to do so while a watch frame is in
flight, so watch->AP and AP->watch transmissions can never overlap.

The link runs on columns: `LinkSimulator.stream` sends a block of frames
between a block of time steps and returns what happened as columns.
`transmit_sample` and `run_until` are its one-frame and one-step uses, which
also record each event as a LinkEvent and its log line.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import NamedTuple

from .framing import CodecFrame, WatchMode, check_mode
from .sensor import check_int, check_seed

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


# the verbatim control-center line that follows an event's own log line
_FOLLOWING_LINE = {
    EventKind.AP_STARTED: AP_STARTED_MESSAGE,
    EventKind.ACQUIRE_ANNOUNCED: ACQUIRING_MESSAGE,
}


def log_lines(kind: EventKind, times, details=None) -> list[str]:
    """The log line of each of a column of events of one kind, at the given
    times and with the given details (none when details is None)."""
    text = kind.value
    if details is None:
        return [f"[t={t}] {text}" for t in times]
    return [f"[t={t}] {text} {detail}" for t, detail in zip(times, details)]


def event_lines(t: int, kind: EventKind, detail: str = "") -> list[str]:
    """One event's log line, then the control-center line that follows it."""
    lines = log_lines(kind, [t], [detail] if detail else None)
    following = _FOLLOWING_LINE.get(kind)
    return lines if following is None else lines + [following]


def frame_details(frame_ids, xyz=None) -> list[str]:
    """Details of a column of frame events: each frame id, then for
    FRAME_SENT and FRAME_DELIVERED its ACC payload, a row of xyz."""
    if xyz is None:
        return [f"frame={frame_id}" for frame_id in frame_ids]
    return [
        f"frame={frame_id} mode=ACC x={x} y={y} z={z}"
        for frame_id, (x, y, z) in zip(frame_ids, xyz)
    ]


@dataclass(frozen=True)
class LinkConfig:
    loss_probability: float = 0.0
    latency: int = 10
    seed: int = 0

    def __post_init__(self):
        # a bool is an int subclass but not a probability
        p = self.loss_probability
        if isinstance(p, bool) or not 0.0 <= p <= 1.0:
            raise ValueError(f"loss_probability must lie in [0, 1], got {p!r}")
        check_int("latency", self.latency, 0)  # timestamps are integer ms
        check_seed(self.seed)


@dataclass(frozen=True)
class LinkEvent:
    """One timestamped protocol event; totally ordered by recording order."""

    t: int
    kind: EventKind
    detail: str = ""
    frame_id: int | None = None
    frame: CodecFrame | None = None

    def log_line(self) -> str:
        return event_lines(self.t, self.kind, self.detail)[0]


class LinkBlock(NamedTuple):
    """What one LinkSimulator.stream call did, as columns."""

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

    All mutation goes through this object; events are immutable values. The
    optional `log` list is shared with other pipeline stages so one
    chronological, newline-ready log accumulates across the whole run.
    """

    def __init__(self, cfg: LinkConfig | None = None, log: list[str] | None = None):
        self.cfg = cfg if cfg is not None else LinkConfig()
        self.log = log if log is not None else []
        self.now = 0
        self.ap_state = AccessPointState.NOT_STARTED
        self.watch_mode = WatchMode.IDLE
        self.events: list[LinkEvent] = []
        self.sent_count = 0
        self.delivered_count = 0
        self.lost_count = 0
        self.acc_resets = 0  # re-entries into ACC mode after leaving it
        self._rng = Random(self.cfg.seed)
        # frames in flight in send order, as (due time, frame id, payload)
        self._in_flight: list[tuple[int, int, object]] = []
        self._acc_seen = False

    def _record(self, event: LinkEvent) -> LinkEvent:
        self.events.append(event)
        self.log.extend(event_lines(event.t, event.kind, event.detail))
        return event

    @property
    def frames_in_flight(self) -> int:
        return len(self._in_flight)

    def ap_start(self) -> LinkEvent:
        """Start the access point; valid exactly once per session."""
        if self.ap_state is not AccessPointState.NOT_STARTED:
            raise ProtocolError("access point already started")
        self.ap_state = AccessPointState.STARTED
        return self._record(
            LinkEvent(self.now, EventKind.AP_STARTED, f"carrier={CARRIER_LABEL}")
        )

    def watch_set_mode(self, mode: WatchMode) -> LinkEvent:
        """Switch the watch mode; the access point acknowledges immediately.

        Requires a started access point and a quiet channel (half-duplex:
        the acknowledgment may not overlap a frame in flight). The mode is
        a WatchMode member or its plain int wire tag (framing.check_mode).
        """
        mode = check_mode(mode)
        if self.ap_state is AccessPointState.NOT_STARTED:
            raise ProtocolError("access point not started")
        if self._in_flight:
            raise ProtocolError(
                "half-duplex violation: cannot acknowledge a mode change"
                " while a frame is in flight"
            )
        if mode is WatchMode.ACC:
            if self._acc_seen and self.watch_mode is not WatchMode.ACC:
                self.acc_resets += 1
            self._acc_seen = True
        self.watch_mode = mode
        return self._record(LinkEvent(self.now, EventKind.MODE_SET, mode.name))

    def _check_streaming(self) -> None:
        if self.ap_state is AccessPointState.NOT_STARTED:
            raise ProtocolError("access point not started: frame rejected")
        if self.watch_mode is not WatchMode.ACC:
            raise ProtocolError(
                f"watch mode {self.watch_mode.name} does not stream data;"
                " set ACC mode first"
            )

    def stream(self, steps: list[int], sent_after: list[int], frames) -> LinkBlock:
        """Advance virtual time through `steps`, sending `frames` between them.

        `steps` are int times, non-decreasing and >= now. Frame k goes out
        right after step sent_after[k], at that step's time, or at the
        current time when sent_after[k] is -1; sent_after is non-decreasing.
        Each frame sent takes the next frame id and one loss draw, in order.
        A kept frame joins the FIFO, due at its send time + latency, and
        arrives at the first step after its send whose time is >= its due
        time; time never runs backwards and latency is fixed, so frames
        arrive in send order. Frames due after the last step stay in flight.
        The first delivery of a session announces acquisition.

        Sending requires a started access point and ACC mode. No event is
        recorded and no log line written: the caller renders the returned
        columns with log_lines, event_lines and frame_details.
        """
        if len(frames):
            self._check_streaming()
        if len(sent_after) != len(frames):
            raise ValueError(f"{len(sent_after)} send steps for {len(frames)} frames")
        prev = self.now
        for t in steps:
            check_int("step", t, prev)
            prev = t
        prev = -1
        for after in sent_after:
            check_int("sent_after", after, prev, len(steps) - 1)
            prev = after
        p, latency, draw = self.cfg.loss_probability, self.cfg.latency, self._rng.random
        first_id = self.sent_count
        lost = [draw() < p for _ in range(len(frames))]
        self.sent_count += len(lost)
        self.lost_count += sum(lost)
        # the FIFO as (due time, first step it may arrive at, frame id, payload)
        queue = [(due, 0, frame_id, frame) for due, frame_id, frame in self._in_flight]
        now = self.now
        queue += [
            ((steps[after] if after >= 0 else now) + latency, after + 1, first_id + k, frame)
            for k, (after, frame, gone) in enumerate(zip(sent_after, frames, lost))
            if not gone
        ]
        # due times and earliest steps both rise along the queue, so arrival
        # steps do too, and the frames delivered are a prefix of it
        arrival = [bisect_left(steps, due, first) for due, first, _, _ in queue]
        n = bisect_left(arrival, len(steps))
        self._in_flight = [(due, frame_id, frame) for due, _, frame_id, frame in queue[n:]]
        self.delivered_count += n
        announced = n > 0 and self.ap_state is not AccessPointState.ACQUIRING
        if announced:
            self.ap_state = AccessPointState.ACQUIRING
        if len(steps):
            self.now = steps[-1]
        delivered = queue[:n]
        return LinkBlock(
            first_id,
            lost,
            arrival[:n],
            [due for due, _, _, _ in delivered],
            [frame_id for _, _, frame_id, _ in delivered],
            [frame for _, _, _, frame in delivered],
            announced,
        )

    def transmit_sample(self, frame: CodecFrame) -> LinkEvent:
        """Send one accelerometer sample, as its ACC frame, at the current time.

        Requires a started access point and ACC mode. The frame is delivered
        after the configured latency, or lost with the configured
        probability; the returned event is FRAME_LOST in that case.
        """
        self._check_streaming()
        if frame.mode is not WatchMode.ACC:
            raise ValueError(f"only ACC frames carry samples, got {frame.mode.name}")
        block = self.stream([], [-1], [frame])
        frame_id = block.first_id
        (detail,) = frame_details([frame_id], [(frame.x, frame.y, frame.z)])
        sent = self._record(LinkEvent(self.now, EventKind.FRAME_SENT, detail, frame_id, frame))
        if block.lost[0]:
            (detail,) = frame_details([frame_id])
            return self._record(LinkEvent(self.now, EventKind.FRAME_LOST, detail, frame_id, frame))
        return sent

    def run_until(self, t: int) -> list[LinkEvent]:
        """Advance virtual time to t (an int >= now), delivering frames due."""
        check_int("t", t, self.now)
        block = self.stream([t], [], [])
        details = frame_details(block.frame_id, [(f.x, f.y, f.z) for f in block.frame])
        emitted: list[LinkEvent] = []
        for due, frame_id, frame, detail in zip(block.t, block.frame_id, block.frame, details):
            emitted.append(
                self._record(LinkEvent(due, EventKind.FRAME_DELIVERED, detail, frame_id, frame))
            )
            if block.announced and len(emitted) == 1:
                emitted.append(self._record(LinkEvent(due, EventKind.ACQUIRE_ANNOUNCED)))
        return emitted
