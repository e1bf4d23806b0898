import math
from random import Random

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
        ev = sim.ap_start()
        assert sim.ap_state is AccessPointState.STARTED
        assert ev.kind is EventKind.AP_STARTED
        assert AP_STARTED_MESSAGE in sim.log
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


class TestWatchMode:
    def test_set_acc_after_start(self):
        sim = LinkSimulator()
        sim.ap_start()
        ev = sim.watch_set_mode(WatchMode.ACC)
        assert ev.kind is EventKind.MODE_SET
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

    def test_acc_reset_counter(self):
        sim = started_sim()
        assert sim.acc_resets == 0
        sim.watch_set_mode(WatchMode.IDLE)
        sim.watch_set_mode(WatchMode.ACC)
        assert sim.acc_resets == 1


class TestTransmit:
    def test_lossless_delivery_carries_payload(self):
        sim = started_sim(loss_probability=0.0, latency=10)
        sim.transmit_sample(sample(z=277))
        events = sim.run_until(10)
        delivered = [e for e in events if e.kind is EventKind.FRAME_DELIVERED]
        assert len(delivered) == 1
        assert delivered[0].t == 10
        assert delivered[0].frame.z == 277

    def test_frame_goes_on_the_link_as_given(self):
        sim = started_sim(latency=10)
        frame = CodecFrame(WatchMode.ACC, 100, 200, 277)
        sent = sim.transmit_sample(frame)
        (delivered,) = [e for e in sim.run_until(10) if e.kind is EventKind.FRAME_DELIVERED]
        assert sent.frame is frame and delivered.frame is frame
        assert sent.log_line() == "[t=0] FRAME_SENT frame=0 mode=ACC x=100 y=200 z=277"

    @pytest.mark.parametrize("mode", [WatchMode.IDLE, WatchMode.PPT, WatchMode.SYNC])
    def test_non_acc_frame_rejected(self, mode):
        sim = started_sim()
        with pytest.raises(ValueError, match=mode.name):
            sim.transmit_sample(CodecFrame(mode, 1, 2, 3))
        assert sim.sent_count == 0 and sim.events[-1].kind is EventKind.MODE_SET

    def test_certain_loss_delivers_nothing(self):
        sim = started_sim(loss_probability=1.0, latency=10)
        ev = sim.transmit_sample(sample())
        assert ev.kind is EventKind.FRAME_LOST
        assert sim.run_until(100) == []
        assert sim.delivered_count == 0
        assert sim.lost_count == 1

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
        for i in range(10):
            sim.transmit_sample(sample())
            sim.run_until(i * 20 + 5)
        assert sim.ap_state is AccessPointState.ACQUIRING
        assert sim.log.count(ACQUIRING_MESSAGE) == 1
        announced = [e for e in sim.events if e.kind is EventKind.ACQUIRE_ANNOUNCED]
        assert len(announced) == 1

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
        events = sim.run_until(10)
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.FRAME_DELIVERED, EventKind.ACQUIRE_ANNOUNCED]


class TestRunUntil:
    def test_no_pending_frames_no_events(self):
        sim = started_sim()
        assert sim.run_until(100) == []
        assert sim.now == 100

    def test_single_scheduled_delivery(self):
        sim = started_sim(latency=10)
        sim.transmit_sample(sample())
        events = sim.run_until(10)
        assert [e.kind for e in events] == [
            EventKind.FRAME_DELIVERED,
            EventKind.ACQUIRE_ANNOUNCED,
        ]
        assert sim.frames_in_flight == 0

    def test_early_run_leaves_frame_in_flight(self):
        sim = started_sim(latency=10)
        sim.transmit_sample(sample())
        assert sim.run_until(9) == []
        assert sim.frames_in_flight == 1

    def test_cannot_run_backwards(self):
        sim = started_sim()
        sim.run_until(50)
        with pytest.raises(ValueError):
            sim.run_until(49)

    def test_identical_seeds_identical_event_sequences(self):
        def run():
            sim = started_sim(loss_probability=0.5, latency=7, seed=123)
            for i in range(50):
                sim.transmit_sample(sample(z=(261 + i) % 1024))
                sim.run_until(i * 20 + 10)
            sim.run_until(2000)
            return [(e.t, e.kind, e.detail) for e in sim.events], list(sim.log)

        assert run() == run()


def assert_half_duplex(events):
    """Walk the event order: AP control traffic only on a quiet channel."""
    in_flight = set()
    for ev in events:
        if ev.kind is EventKind.FRAME_SENT:
            in_flight.add(ev.frame_id)
        elif ev.kind in (EventKind.FRAME_DELIVERED, EventKind.FRAME_LOST):
            in_flight.discard(ev.frame_id)
        elif ev.kind in (EventKind.AP_STARTED, EventKind.MODE_SET):
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
    assert_half_duplex(sim.events)
    # events are totally ordered: non-decreasing t, ties by emission order
    assert all(a.t <= b.t for a, b in zip(sim.events, sim.events[1:]))
    # interval view: no AP transmission strictly inside a flight span
    sent = {e.frame_id: e.t for e in sim.events if e.kind is EventKind.FRAME_SENT}
    spans = [
        (sent[e.frame_id], e.t)
        for e in sim.events
        if e.kind is EventKind.FRAME_DELIVERED
    ]
    ap_times = [
        e.t for e in sim.events
        if e.kind in (EventKind.AP_STARTED, EventKind.MODE_SET)
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


@pytest.mark.parametrize("loss", [True, False])
def test_loss_probability_is_not_a_bool(loss):
    # True would lose every frame, False none
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
    draw per transmitted frame.
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
        self.acc_seen = False
        self.acc_resets = 0
        self.announced = False
        self.sent = self.delivered = self.lost = 0
        self.in_flight = []  # (send_t, frame_id, frame)
        self.events = []  # (t, kind, frame_id) expected in sim.events
        if streaming:  # else sends are mostly refused until start and ACC
            self.start()
            self.set_mode(WatchMode.ACC)

    def advance(self, dt):
        t = self.sim.now + dt
        latency = self.cfg.latency
        due = sorted(f for f in self.in_flight if f[0] + latency <= t)
        self.in_flight = [f for f in self.in_flight if f[0] + latency > t]
        expected = []
        for send_t, frame_id, frame in due:
            due_t = send_t + latency
            self.delivered += 1
            expected.append((due_t, EventKind.FRAME_DELIVERED, frame_id, frame))
            if not self.announced:
                self.announced = True
                expected.append((due_t, EventKind.ACQUIRE_ANNOUNCED, None, None))
        emitted = self.sim.run_until(t)
        assert [(e.t, e.kind, e.frame_id, e.frame) for e in emitted] == expected
        for ev in emitted:
            if ev.kind is EventKind.FRAME_DELIVERED:
                f = ev.frame
                assert ev.detail == (
                    f"frame={ev.frame_id} mode=ACC x={f.x} y={f.y} z={f.z}"
                )
        self.events += [(t_, kind, fid) for t_, kind, fid, _ in expected]
        assert self.sim.now == t

    @rule()
    def start(self):
        if self.started:
            with pytest.raises(ProtocolError):
                self.sim.ap_start()
            return
        ev = self.sim.ap_start()
        self.started = True
        self.events.append((ev.t, EventKind.AP_STARTED, None))

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
        if mode is WatchMode.ACC:
            if self.acc_seen and self.mode is not WatchMode.ACC:
                self.acc_resets += 1
            self.acc_seen = True
        self.mode = mode
        ev = self.sim.watch_set_mode(mode)
        self.events.append((ev.t, EventKind.MODE_SET, None))

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
        ev = self.sim.transmit_sample(frame)
        assert ev.frame_id == frame_id and ev.frame is frame
        t = self.sim.now
        self.events.append((t, EventKind.FRAME_SENT, frame_id))
        if self.loss_rng.random() < self.cfg.loss_probability:
            self.lost += 1
            assert ev.kind is EventKind.FRAME_LOST
            self.events.append((t, EventKind.FRAME_LOST, frame_id))
        else:
            assert ev.kind is EventKind.FRAME_SENT
            self.in_flight.append((t, frame_id, frame))

    @invariant()
    def counters_match(self):
        sim = self.sim
        assert (sim.sent_count, sim.delivered_count, sim.lost_count) == (
            self.sent, self.delivered, self.lost
        )
        assert sim.delivered_count + sim.lost_count + sim.frames_in_flight == sim.sent_count
        assert sim.frames_in_flight == len(self.in_flight)
        assert sim.acc_resets == self.acc_resets
        assert sim.watch_mode is self.mode

    @invariant()
    def state_and_events_match(self):
        if self.announced:
            state = AccessPointState.ACQUIRING
        elif self.started:
            state = AccessPointState.STARTED
        else:
            state = AccessPointState.NOT_STARTED
        assert self.sim.ap_state is state
        assert [(e.t, e.kind, e.frame_id) for e in self.sim.events] == self.events
        assert self.sim.log.count(ACQUIRING_MESSAGE) == int(self.announced)


LinkMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLinkStateMachine = LinkMachine.TestCase
