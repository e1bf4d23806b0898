import math
import re
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from wristlink.link import (
    ACQUIRING_MESSAGE,
    AP_STARTED_MESSAGE,
    AccessPointState,
    EventKind,
    LinkConfig,
    LinkSimulator,
    ProtocolError,
)
from wristlink.framing import CodecFrame, WatchMode
from wristlink.sensor import AccelSample


def sample(z=277):
    """An ACC frame; the link stamps it with its current time."""
    return CodecFrame(WatchMode.ACC, 100, 200, z)


def started_sim(**cfg_kwargs):
    sim = LinkSimulator(LinkConfig(**cfg_kwargs))
    sim.ap_start()
    sim.watch_set_mode(WatchMode.ACC)
    return sim


class TestApStart:
    def test_start_emits_exact_message(self):
        sim = LinkSimulator()
        assert sim.ap_start() is None
        assert sim.ap_state is AccessPointState.STARTED
        assert sim.log == ["[t=0] AP_STARTED carrier=900 MHz", AP_STARTED_MESSAGE]
        assert (
            AP_STARTED_MESSAGE
            == "Access point started. Now start watch in ACC, PPT or Synch mode."
        )

    def test_double_start_rejected(self):
        sim = LinkSimulator()
        sim.ap_start()
        with pytest.raises(ProtocolError):
            sim.ap_start()
        assert sim.ap_state is AccessPointState.STARTED

    def test_transmit_before_start_rejected(self):
        sim = LinkSimulator()
        with pytest.raises(ProtocolError):
            sim.transmit_sample(sample())
        assert sim.sent_count == 0

    @pytest.mark.parametrize("cfg", [{"latency": 1}, 0.5])
    def test_config_must_be_a_link_config(self, cfg):
        # a dict would fail later, on its first attribute read
        with pytest.raises(ValueError, match=f"^cfg must be a LinkConfig, got {type(cfg).__name__}$"):
            LinkSimulator(cfg=cfg)


class TestWatchMode:
    def test_set_acc_after_start(self):
        sim = LinkSimulator()
        sim.ap_start()
        assert sim.watch_set_mode(WatchMode.ACC) is None
        assert sim.log[-1] == "[t=0] MODE_SET ACC"
        assert sim.watch_mode is WatchMode.ACC

    def test_set_mode_before_start_rejected(self):
        sim = LinkSimulator()
        with pytest.raises(ProtocolError):
            sim.watch_set_mode(WatchMode.ACC)

    def test_idle_stops_streaming(self):
        sim = started_sim()
        sim.transmit_sample(sample())
        sim.run_until(50)
        sim.watch_set_mode(WatchMode.IDLE)
        with pytest.raises(ProtocolError):
            sim.transmit_sample(sample())

    @pytest.mark.parametrize("mode", [WatchMode.PPT, WatchMode.SYNC])
    def test_inert_modes_accepted_but_carry_no_payload(self, mode):
        sim = LinkSimulator()
        sim.ap_start()
        sim.watch_set_mode(mode)
        with pytest.raises(ProtocolError):
            sim.transmit_sample(sample())

    def test_mode_ack_refused_while_frame_in_flight(self):
        sim = started_sim(latency=10)
        sim.transmit_sample(sample())
        with pytest.raises(ProtocolError, match="half-duplex"):
            sim.watch_set_mode(WatchMode.PPT)
        sim.run_until(10)
        sim.watch_set_mode(WatchMode.PPT)  # quiet channel again


class TestTransmit:
    def test_lossless_delivery_carries_payload(self):
        sim = started_sim(loss_probability=0.0, latency=10)
        sim.transmit_sample(sample(z=277))
        block = sim.run_until(10)
        assert block.t == [10] and block.frame_id == [0]
        assert block.frame[0].z == 277

    def test_frame_goes_on_the_link_as_given(self):
        sim = started_sim(latency=10)
        frame = CodecFrame(WatchMode.ACC, 100, 200, 277)
        sent = sim.transmit_sample(frame)
        assert sent.first_id == 0 and sent.lost == [False]
        assert sim.log[-1] == "[t=0] FRAME_SENT frame=0 mode=ACC x=100 y=200 z=277"
        delivered = sim.run_until(10)
        assert delivered.frame_id == [0] and delivered.frame[0] is frame

    @pytest.mark.parametrize("mode", [WatchMode.IDLE, WatchMode.PPT, WatchMode.SYNC])
    def test_non_acc_frame_rejected(self, mode):
        sim = started_sim()
        with pytest.raises(ValueError, match=mode.name):
            sim.transmit_sample(CodecFrame(mode, 1, 2, 3))
        assert sim.sent_count == 0 and sim.log[-1] == "[t=0] MODE_SET ACC"

    @pytest.mark.parametrize("not_a_frame", [AccelSample(0, 1, 2, 3), (1, 2, 3), None])
    def test_non_frame_rejected_naming_its_type(self, not_a_frame):
        sim = started_sim()
        with pytest.raises(ValueError, match=type(not_a_frame).__name__):
            sim.transmit_sample(not_a_frame)
        assert sim.sent_count == 0 and sim.log[-1] == "[t=0] MODE_SET ACC"

    def test_non_frame_rejected_before_the_protocol_state(self):
        sim = LinkSimulator()
        with pytest.raises(ValueError, match="AccelSample"):
            sim.transmit_sample(AccelSample(0, 1, 2, 3))
        assert sim.log == []

    def test_certain_loss_delivers_nothing(self):
        sim = started_sim(loss_probability=1.0, latency=10)
        block = sim.transmit_sample(sample())
        assert block.lost == [True]
        assert sim.log[-1] == "[t=0] FRAME_LOST frame=0"
        assert sim.run_until(100).frame_id == []
        assert sim.delivered_count == 0
        assert sim.lost_count == 1

    @pytest.mark.parametrize("p", [0.25, 0.5, 1e-300])
    def test_frame_lost_exactly_when_its_draw_is_below_p(self, p):
        for value, lost in [(p, False), (math.nextafter(p, 0), True)]:
            sim = started_sim(loss_probability=p)
            sim._rng = SimpleNamespace(random=lambda: value)
            assert sim.transmit_sample(sample()).lost == [lost], value

    def test_delivered_count_reproducible_and_near_expectation(self):
        def run():
            sim = started_sim(loss_probability=0.2, latency=1, seed=77)
            for i in range(100):
                sim.transmit_sample(sample())
                sim.run_until(i * 20 + 1)
            return sim.delivered_count

        first, second = run(), run()
        assert first == second
        # 4-sigma binomial bound around n*(1-p)
        bound = 4 * math.sqrt(100 * 0.2 * 0.8)
        assert abs(first - 80) <= bound


class TestAcquiring:
    def test_announced_exactly_once(self):
        sim = started_sim(latency=5)
        announced = []
        for i in range(10):
            sim.transmit_sample(sample())
            announced.append(sim.run_until(i * 20 + 5).announced)
        assert sim.ap_state is AccessPointState.ACQUIRING
        assert sim.log.count(ACQUIRING_MESSAGE) == 1
        assert announced == [True] + [False] * 9
        assert sum(line.endswith("] ACQUIRE_ANNOUNCED") for line in sim.log) == 1

    def test_not_announced_when_everything_lost(self):
        sim = started_sim(loss_probability=1.0)
        for i in range(5):
            sim.transmit_sample(sample())
        sim.run_until(1000)
        assert ACQUIRING_MESSAGE not in sim.log
        assert sim.ap_state is AccessPointState.STARTED

    def test_announce_follows_first_delivery(self):
        sim = started_sim(latency=10)
        sim.transmit_sample(sample())
        block = sim.run_until(10)
        assert block.frame_id == [0] and block.announced
        assert sim.log[-3:] == [
            "[t=10] FRAME_DELIVERED frame=0 mode=ACC x=100 y=200 z=277",
            "[t=10] ACQUIRE_ANNOUNCED",
            ACQUIRING_MESSAGE,
        ]

    def test_announce_follows_the_first_of_several_deliveries(self):
        sim = started_sim(latency=10)
        for z in (270, 271, 272):
            sim.transmit_sample(sample(z))
        block = sim.run_until(10)
        assert block.frame_id == [0, 1, 2] and block.announced
        assert sim.log[-5:] == [
            "[t=10] FRAME_DELIVERED frame=0 mode=ACC x=100 y=200 z=270",
            "[t=10] ACQUIRE_ANNOUNCED",
            ACQUIRING_MESSAGE,
            "[t=10] FRAME_DELIVERED frame=1 mode=ACC x=100 y=200 z=271",
            "[t=10] FRAME_DELIVERED frame=2 mode=ACC x=100 y=200 z=272",
        ]


class TestRunUntil:
    def test_no_pending_frames_no_events(self):
        sim = started_sim()
        lines = list(sim.log)
        block = sim.run_until(100)
        assert (block.lost, block.step, block.t, block.frame_id, block.frame) == ([],) * 5
        assert not block.announced
        assert sim.now == 100 and sim.log == lines

    def test_single_scheduled_delivery(self):
        sim = started_sim(latency=10)
        sim.transmit_sample(sample())
        block = sim.run_until(10)
        assert (block.step, block.t, block.frame_id) == ([0], [10], [0])
        assert block.announced
        assert sim.frames_in_flight == 0

    def test_early_run_leaves_frame_in_flight(self):
        sim = started_sim(latency=10)
        sim.transmit_sample(sample())
        assert sim.run_until(9).frame_id == []
        assert sim.frames_in_flight == 1

    def test_cannot_run_backwards(self):
        sim = started_sim()
        sim.run_until(50)
        with pytest.raises(ValueError):
            sim.run_until(49)

    def test_identical_seeds_identical_event_sequences(self):
        def run():
            sim = started_sim(loss_probability=0.5, latency=7, seed=123)
            blocks = []
            for i in range(50):
                blocks.append(sim.transmit_sample(sample(z=(261 + i) % 1024)))
                blocks.append(sim.run_until(i * 20 + 10))
            blocks.append(sim.run_until(2000))
            return blocks, list(sim.log)

        assert run() == run()


EVENT_LINE = re.compile(r"\[t=(\d+)\] ([A-Z_]+)(?: frame=(\d+))?.*")
FOLLOWING_LINE = {
    EventKind.AP_STARTED: AP_STARTED_MESSAGE,
    EventKind.ACQUIRE_ANNOUNCED: ACQUIRING_MESSAGE,
}


def log_events(log):
    """(t, kind, frame id or None) of each event line of a link log, in log
    order; the verbatim line that must follow an event is checked and
    skipped."""
    events, lines = [], iter(log)
    for line in lines:
        t, kind, frame_id = EVENT_LINE.fullmatch(line).groups()
        kind = EventKind(kind)
        events.append((int(t), kind, None if frame_id is None else int(frame_id)))
        if kind in FOLLOWING_LINE:
            assert next(lines) == FOLLOWING_LINE[kind]
    return events


def assert_half_duplex(events):
    """Walk the event order: AP control traffic only on a quiet channel."""
    in_flight = set()
    for _, kind, frame_id in events:
        if kind is EventKind.FRAME_SENT:
            in_flight.add(frame_id)
        elif kind in (EventKind.FRAME_DELIVERED, EventKind.FRAME_LOST):
            in_flight.discard(frame_id)
        elif kind in (EventKind.AP_STARTED, EventKind.MODE_SET):
            assert not in_flight


def test_half_duplex_intervals_never_overlap_ap_transmissions():
    rng = Random(2024)
    sim = started_sim(loss_probability=0.3, latency=15, seed=9)
    t = 0
    for _ in range(200):
        t += rng.randint(1, 30)
        sim.run_until(t)
        if sim.frames_in_flight == 0 and rng.random() < 0.2:
            sim.watch_set_mode(WatchMode.ACC)
        sim.transmit_sample(sample())
    sim.run_until(t + 100)
    events = log_events(sim.log)
    kinds = [kind for _, kind, _ in events]
    assert kinds.count(EventKind.FRAME_SENT) == sim.sent_count
    assert kinds.count(EventKind.FRAME_DELIVERED) == sim.delivered_count
    assert_half_duplex(events)
    # events are totally ordered: non-decreasing t, ties by emission order
    assert all(a[0] <= b[0] for a, b in zip(events, events[1:]))
    # interval view: no AP transmission strictly inside a flight span
    sent = {frame_id: t for t, kind, frame_id in events if kind is EventKind.FRAME_SENT}
    spans = [
        (sent[frame_id], t)
        for t, kind, frame_id in events
        if kind is EventKind.FRAME_DELIVERED
    ]
    ap_times = [
        t for t, kind, _ in events
        if kind in (EventKind.AP_STARTED, EventKind.MODE_SET)
    ]
    for ap_t in ap_times:
        for lo, hi in spans:
            assert not (lo < ap_t < hi)


def test_event_log_line_format():
    sim = started_sim(latency=10)
    sim.transmit_sample(sample(z=277))
    sim.run_until(10)
    assert sim.log[0].startswith("[t=0] AP_STARTED")
    assert sim.log[1] == AP_STARTED_MESSAGE
    assert sim.log[2] == "[t=0] MODE_SET ACC"
    assert "[t=0] FRAME_SENT frame=0 mode=ACC x=100 y=200 z=277" in sim.log
    assert "[t=10] FRAME_DELIVERED frame=0 mode=ACC x=100 y=200 z=277" in sim.log
    assert sim.log[-1] == ACQUIRING_MESSAGE


@pytest.mark.parametrize("latency", [1.5, 10.0, True])
def test_latency_must_be_plain_int(latency):
    # a float latency would put float timestamps into the [t=...] log lines
    with pytest.raises(ValueError, match="latency"):
        LinkConfig(latency=latency)


@pytest.mark.parametrize("loss", [True, False, np.True_, "0.1", None])
def test_loss_probability_is_not_a_bool(loss):
    # True would lose every frame, False none; np.True_ would run at 1.0,
    # and a string or None is no probability
    with pytest.raises(ValueError, match="loss_probability"):
        LinkConfig(loss_probability=loss)


@pytest.mark.parametrize("seed", [-3, 1.5, True, 2**64])
def test_seed_must_be_an_int_word(seed):
    # Random(-3) draws exactly as Random(3): a negative seed is not a new stream
    with pytest.raises(ValueError, match="seed"):
        LinkConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_accepted(seed):
    assert LinkConfig(seed=seed).seed == seed


class LinkMachine(RuleBasedStateMachine):
    """Drive LinkSimulator against a plain model of the fixed-latency link.

    On each advance the model delivers every frame in flight that is due
    (send time + latency) by the new time, ordered by due time and then by
    send order. Loss mirrors the simulator's one `Random(seed).random()`
    draw per transmitted frame. The model writes the log lines it expects,
    and the simulator's whole log must equal them.
    """

    @initialize(
        latency=st.integers(0, 40),
        loss=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32),
        streaming=st.booleans(),
    )
    def setup(self, latency, loss, seed, streaming):
        self.cfg = LinkConfig(loss_probability=loss, latency=latency, seed=seed)
        self.sim = LinkSimulator(self.cfg)
        self.loss_rng = Random(seed)
        self.started = False
        self.mode = WatchMode.IDLE
        self.announced = False
        self.sent = self.delivered = self.lost = 0
        self.in_flight = []  # (send_t, frame_id, frame)
        self.lines = []  # expected sim.log
        if streaming:  # else sends are mostly refused until start and ACC
            self.start()
            self.set_mode(WatchMode.ACC)

    def advance(self, dt):
        t = self.sim.now + dt
        latency = self.cfg.latency
        due = sorted(f for f in self.in_flight if f[0] + latency <= t)
        self.in_flight = [f for f in self.in_flight if f[0] + latency > t]
        block = self.sim.run_until(t)
        assert (block.first_id, block.lost) == (self.sent, [])
        assert block.step == [0] * len(due)
        assert block.t == [send_t + latency for send_t, _, _ in due]
        assert block.frame_id == [frame_id for _, frame_id, _ in due]
        assert len(block.frame) == len(due)
        assert all(got is frame for got, (_, _, frame) in zip(block.frame, due))
        assert block.announced == (bool(due) and not self.announced)
        for send_t, frame_id, f in due:
            due_t = send_t + latency
            self.delivered += 1
            self.lines.append(
                f"[t={due_t}] FRAME_DELIVERED frame={frame_id} mode=ACC x={f.x} y={f.y} z={f.z}"
            )
            if not self.announced:
                self.announced = True
                self.lines += [f"[t={due_t}] ACQUIRE_ANNOUNCED", ACQUIRING_MESSAGE]
        assert self.sim.now == t

    @rule()
    def start(self):
        if self.started:
            with pytest.raises(ProtocolError):
                self.sim.ap_start()
            return
        assert self.sim.ap_start() is None
        self.started = True
        self.lines += [f"[t={self.sim.now}] AP_STARTED carrier=900 MHz", AP_STARTED_MESSAGE]

    @rule(dt=st.integers(0, 60))
    def run(self, dt):
        self.advance(dt)

    @rule(back=st.integers(1, 50))
    def run_backwards_rejected(self, back):
        if self.sim.now == 0:
            return
        with pytest.raises(ValueError):
            self.sim.run_until(self.sim.now - back)

    @rule(mode=st.sampled_from(list(WatchMode)))
    def set_mode(self, mode):
        if not self.started or self.in_flight:
            # unstarted access point, or half-duplex: a frame is in flight
            with pytest.raises(ProtocolError):
                self.sim.watch_set_mode(mode)
            return
        self.mode = mode
        assert self.sim.watch_set_mode(mode) is None
        self.lines.append(f"[t={self.sim.now}] MODE_SET {mode.name}")

    @rule(
        dt=st.integers(0, 30) | st.just(0),
        counts=st.tuples(*[st.integers(0, 1023)] * 3),
    )
    def send(self, dt, counts):
        self.advance(dt)
        frame = CodecFrame(WatchMode.ACC, *counts)
        if not self.started or self.mode is not WatchMode.ACC:
            with pytest.raises(ProtocolError):
                self.sim.transmit_sample(frame)
            return
        frame_id = self.sent
        self.sent += 1
        block = self.sim.transmit_sample(frame)
        lost = self.loss_rng.random() < self.cfg.loss_probability
        assert (block.first_id, block.lost) == (frame_id, [lost])
        assert (block.step, block.t, block.frame_id, block.frame) == ([],) * 4
        assert not block.announced
        t = self.sim.now
        x, y, z = counts
        self.lines.append(f"[t={t}] FRAME_SENT frame={frame_id} mode=ACC x={x} y={y} z={z}")
        if lost:
            self.lost += 1
            self.lines.append(f"[t={t}] FRAME_LOST frame={frame_id}")
        else:
            self.in_flight.append((t, frame_id, frame))

    @invariant()
    def counters_match(self):
        sim = self.sim
        assert (sim.sent_count, sim.delivered_count, sim.lost_count) == (
            self.sent, self.delivered, self.lost
        )
        assert sim.delivered_count + sim.lost_count + sim.frames_in_flight == sim.sent_count
        assert sim.frames_in_flight == len(self.in_flight)
        assert sim.watch_mode is self.mode

    @invariant()
    def holds_exactly_the_frames_in_flight(self):
        # counters_match sees how many frames are in flight, not which: a
        # lost or delivered frame still held would pass it
        due, ids = self.sim._in_flight
        assert due.tolist() == [send_t + self.cfg.latency for send_t, _, _ in self.in_flight]
        assert ids.tolist() == [frame_id for _, frame_id, _ in self.in_flight]
        held = self.sim._held
        assert list(held) == ids.tolist()
        assert all(held[frame_id] is frame for _, frame_id, frame in self.in_flight)

    @invariant()
    def state_and_log_match(self):
        if self.announced:
            state = AccessPointState.ACQUIRING
        elif self.started:
            state = AccessPointState.STARTED
        else:
            state = AccessPointState.NOT_STARTED
        assert self.sim.ap_state is state
        assert self.sim.log == self.lines
        assert self.sim.log.count(ACQUIRING_MESSAGE) == int(self.announced)


LinkMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLinkStateMachine = LinkMachine.TestCase
