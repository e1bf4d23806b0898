"""Half-duplex watch-to-access-point link as a discrete-event state machine.

The access point bridges the watch's RF side to the host control center. The
watch streams 3-axis frames only in ACC mode; PPT and SYNC are accepted but
inert. Frames suffer independent Bernoulli loss and a fixed per-frame latency
over virtual time (milliseconds). The nominal 900 MHz carrier is a fixed
informational label; no RF waveform is sampled at this layer.

Half-duplex rule: the access point transmits control acknowledgments only
(start and mode changes), and refuses to do so while a watch frame is in
flight, so watch->AP and AP->watch transmissions can never overlap.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from random import Random

from .framing import CodecFrame, WatchMode
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
        if self.detail:
            return f"[t={self.t}] {self.kind.value} {self.detail}"
        return f"[t={self.t}] {self.kind.value}"


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
        self._in_flight: deque[LinkEvent] = deque()  # FRAME_SENT events, in send order
        self._acc_seen = False

    def _record(self, event: LinkEvent, extra_line: str | None = None) -> LinkEvent:
        self.events.append(event)
        self.log.append(event.log_line())
        if extra_line is not None:
            self.log.append(extra_line)
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
            LinkEvent(self.now, EventKind.AP_STARTED, f"carrier={CARRIER_LABEL}"),
            extra_line=AP_STARTED_MESSAGE,
        )

    def watch_set_mode(self, mode: WatchMode) -> LinkEvent:
        """Switch the watch mode; the access point acknowledges immediately.

        Requires a started access point and a quiet channel (half-duplex:
        the acknowledgment may not overlap a frame in flight).
        """
        if self.ap_state is AccessPointState.NOT_STARTED:
            raise ProtocolError("access point not started")
        if self._in_flight:
            raise ProtocolError(
                "half-duplex violation: cannot acknowledge a mode change"
                " while a frame is in flight"
            )
        mode = WatchMode(mode)
        if mode is WatchMode.ACC:
            if self._acc_seen and self.watch_mode is not WatchMode.ACC:
                self.acc_resets += 1
            self._acc_seen = True
        self.watch_mode = mode
        return self._record(LinkEvent(self.now, EventKind.MODE_SET, mode.name))

    def transmit_sample(self, frame: CodecFrame) -> LinkEvent:
        """Send one accelerometer sample, as its ACC frame, at the current time.

        Requires a started access point and ACC mode. The frame is delivered
        after the configured latency, or lost with the configured
        probability; the returned event is FRAME_LOST in that case.
        """
        if self.ap_state is AccessPointState.NOT_STARTED:
            raise ProtocolError("access point not started: frame rejected")
        if self.watch_mode is not WatchMode.ACC:
            raise ProtocolError(
                f"watch mode {self.watch_mode.name} does not stream data;"
                " set ACC mode first"
            )
        if frame.mode is not WatchMode.ACC:
            raise ValueError(f"only ACC frames carry samples, got {frame.mode.name}")
        frame_id = self.sent_count
        self.sent_count += 1
        sent = self._record(
            LinkEvent(
                self.now,
                EventKind.FRAME_SENT,
                f"frame={frame_id} mode=ACC x={frame.x} y={frame.y} z={frame.z}",
                frame_id=frame_id,
                frame=frame,
            )
        )
        if self._rng.random() < self.cfg.loss_probability:
            self.lost_count += 1
            return self._record(
                LinkEvent(
                    self.now,
                    EventKind.FRAME_LOST,
                    f"frame={frame_id}",
                    frame_id=frame_id,
                    frame=frame,
                )
            )
        self._in_flight.append(sent)
        return sent

    def run_until(self, t: int) -> list[LinkEvent]:
        """Advance virtual time to t (an int >= now), delivering frames due.

        Time never runs backwards and latency is fixed, so the frames in
        flight are due in send order, each at its send time + latency.
        """
        check_int("t", t, self.now)
        emitted: list[LinkEvent] = []
        latency = self.cfg.latency
        while self._in_flight and self._in_flight[0].t + latency <= t:
            sent = self._in_flight.popleft()
            self.now = sent.t + latency
            self.delivered_count += 1
            emitted.append(
                self._record(
                    LinkEvent(
                        self.now,
                        EventKind.FRAME_DELIVERED,
                        sent.detail,
                        frame_id=sent.frame_id,
                        frame=sent.frame,
                    )
                )
            )
            if self.ap_state is not AccessPointState.ACQUIRING:
                self.ap_state = AccessPointState.ACQUIRING
                emitted.append(
                    self._record(
                        LinkEvent(self.now, EventKind.ACQUIRE_ANNOUNCED),
                        extra_line=ACQUIRING_MESSAGE,
                    )
                )
        self.now = t
        return emitted
