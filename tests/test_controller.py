import math
from collections import deque
from dataclasses import replace
from random import Random

import pytest

from wristlink.classify import Action, CalibrationProfile, Debouncer, classify_window
from wristlink.controller import (
    PHY_BLOCK_FRAMES,
    HomeController,
    PirState,
    run_pipeline,
)
from wristlink.framing import CodecFrame, DecodeError, WatchMode, deserialize, serialize
from wristlink.link import EventKind, LinkConfig, LinkSimulator
from wristlink.modem import ModemConfig, channel_apply, demodulate, modulate
from wristlink.sensor import AccelSample, GestureKind, Trace, check_counts, generate_gesture


class TestHomeController:
    def test_trigger_arms(self):
        ctrl = HomeController()
        assert ctrl.pir is PirState.UNARMED
        ctrl.pir_trigger(5)
        assert ctrl.pir is PirState.ARMED
        assert ctrl.log == ["[t=5] PIR TRIGGERED"]

    def test_retrigger_refreshes_timestamp(self):
        ctrl = HomeController()
        ctrl.pir_trigger(5)
        ctrl.pir_trigger(9)
        assert ctrl.pir is PirState.ARMED

    def test_armed_on_powers_appliance(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        state = ctrl.apply_action(Action.ON, 10)
        assert state.powered is True
        assert "[t=10] APPLIANCE light -> ON" in ctrl.log

    def test_armed_on_when_already_on_logs_nothing(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        before = list(ctrl.log)
        ctrl.apply_action(Action.ON, 20)
        assert ctrl.log == before
        assert ctrl.appliance.powered is True

    def test_unarmed_actions_ignored(self):
        ctrl = HomeController()
        state = ctrl.apply_action(Action.ON, 10)
        assert state.powered is False
        assert ctrl.log == []

    def test_armed_off_cuts_power(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        state = ctrl.apply_action(Action.OFF, 20)
        assert state.powered is False
        assert "[t=20] APPLIANCE light -> OFF" in ctrl.log

    def test_do_nothing_changes_nothing(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        ctrl.apply_action(Action.DO_NOTHING, 20)
        assert ctrl.appliance.powered is True


def vertical_trace(n=32, seed=1):
    return generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed)


class TestRunPipeline:
    def test_vertical_trace_powers_on(self):
        result = run_pipeline(vertical_trace(), link_cfg=LinkConfig(loss_probability=0.0), pir_at=0)
        assert result.appliance.powered is True
        assert result.frames_sent == 32
        assert result.frames_delivered == 32
        assert result.frames_lost == 0
        assert result.frames_corrupted == 0
        # sliding window: one verdict per delivery once the window is full
        assert result.windows_classified == 32 - 16 + 1
        # ACC mode is set once, so the sensor is never reset mid-run
        assert result.log.count("[t=0] MODE_SET ACC") == 1

    def test_without_pir_power_stays_off(self):
        result = run_pipeline(vertical_trace(), pir_at=None)
        assert result.appliance.powered is False
        assert not any("APPLIANCE" in line for line in result.log)
        # the classifier still ran; only the gate blocked the transition
        assert any("ACTION ON" in line for line in result.log)

    def test_horizontal_after_on_turns_off(self):
        on = run_pipeline(vertical_trace(), pir_at=0)
        assert on.appliance.powered is True
        off = run_pipeline(
            generate_gesture(GestureKind.HORIZONTAL, 32, seed=2), pir_at=0
        )
        assert off.actions and off.actions[-1][1] is Action.OFF

    def test_single_session_vertical_then_horizontal(self):
        # one continuous stream: the light turns on during the vertical
        # segment, then off during the horizontal segment
        vertical = vertical_trace(32, seed=1)
        horizontal = generate_gesture(GestureKind.HORIZONTAL, 32, seed=2)
        offset = vertical.samples[-1].t + 20
        combined = Trace(
            vertical.samples
            + tuple(
                AccelSample(t=s.t + offset, x=s.x, y=s.y, z=s.z)
                for s in horizontal.samples
            )
        )
        result = run_pipeline(combined, pir_at=0)
        transitions = [l for l in result.log if "APPLIANCE" in l]
        assert transitions[0].endswith("light -> ON")
        assert transitions[-1].endswith("light -> OFF")
        assert result.appliance.powered is False

    def test_delivered_payloads_equal_transmitted_samples_when_clean(self):
        trace = vertical_trace(24, seed=9)
        result = run_pipeline(trace, pir_at=0)
        delivered = [
            (e.frame.x, e.frame.y, e.frame.z)
            for e in result.events
            if e.kind is EventKind.FRAME_DELIVERED
        ]
        assert delivered == [(s.x, s.y, s.z) for s in trace]

    def test_each_frame_range_checked_once(self, monkeypatch):
        # one check for the frame encoded from each sample and one for the
        # frame decoded from its bits, which goes on the link as it is
        trace = vertical_trace(200, seed=9)
        calls = []

        def counting_check(x, y, z):
            calls.append((x, y, z))
            return check_counts(x, y, z)

        monkeypatch.setattr("wristlink.framing.check_counts", counting_check)
        monkeypatch.setattr("wristlink.sensor.check_counts", counting_check)
        result = run_pipeline(trace, pir_at=0)
        assert result.frames_sent == 200
        assert len(calls) == 2 * 200

    def test_idle_trace_never_acts(self):
        result = run_pipeline(generate_gesture(GestureKind.OTHER, 32, seed=3), pir_at=0)
        assert result.actions == []
        assert result.appliance.powered is False
        assert result.windows_classified == 32 - 16 + 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(Trace(()))

    def test_negative_pir_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(vertical_trace(), pir_at=-1)

    def test_deterministic_logs(self):
        link_cfg = LinkConfig(loss_probability=0.25, latency=10, seed=5)
        modem_cfg = ModemConfig(noise_sigma=0.3, seed=7)
        a = run_pipeline(vertical_trace(), link_cfg=link_cfg, modem_cfg=modem_cfg)
        b = run_pipeline(vertical_trace(), link_cfg=link_cfg, modem_cfg=modem_cfg)
        assert a.log == b.log
        assert a.appliance == b.appliance

    def test_losses_shrink_window_fill_not_progress(self):
        result = run_pipeline(
            vertical_trace(64, seed=4),
            link_cfg=LinkConfig(loss_probability=0.3, seed=11),
        )
        assert result.frames_delivered + result.frames_lost == 64
        assert result.windows_classified == max(0, result.frames_delivered - 15)

    def test_noisy_channel_corrupts_frames_but_crc_catches_them(self):
        result = run_pipeline(
            vertical_trace(48, seed=6),
            modem_cfg=ModemConfig(noise_sigma=1.5, seed=13),
        )
        assert result.frames_corrupted > 0
        assert result.frames_sent == 48 - result.frames_corrupted
        assert any("FRAME_CORRUPTED" in line for line in result.log)
        # every delivered frame passed the integrity check, so every window
        # mean stays inside the vertical capture range
        for t, action in result.actions:
            assert action is Action.ON

    @pytest.mark.parametrize("sigma", [0.6, 0.8, 1.0])
    def test_frames_corrupted_matches_frame_error_rate(self, sigma):
        # a frame is corrupted when any of its 48 bits flips; bits flip
        # independently at the noncoherent BFSK rate 1/2 exp(-2/sigma^2).
        # The few corrupted frames that pass the CRC bias this low by far
        # less than the tolerance.
        n = 3000
        result = run_pipeline(
            vertical_trace(n, seed=5),
            modem_cfg=ModemConfig(noise_sigma=sigma, seed=2017),
            pir_at=None,
        )
        p = 1 - (1 - 0.5 * math.exp(-2.0 / sigma**2)) ** 48
        z = (result.frames_corrupted - n * p) / math.sqrt(n * p * (1 - p))
        assert abs(z) < 3, f"{result.frames_corrupted} of {n} vs {n * p:.1f}: z={z:.2f}"

    def test_pir_after_debounced_emission_misses_the_action(self):
        # the gesture's single debounced ON fires at t=330, before the
        # presence trigger; unarmed emissions are ignored and the debouncer
        # does not repeat itself, so the appliance stays off
        trace = vertical_trace(64, seed=8)
        result = run_pipeline(trace, pir_at=400)
        assert result.actions == [(330, Action.ON)]
        assert "[t=400] PIR TRIGGERED" in result.log
        assert not any("APPLIANCE" in line for line in result.log)
        assert result.appliance.powered is False

    def test_pir_before_streaming_honors_the_action(self):
        result = run_pipeline(vertical_trace(64, seed=8), pir_at=100)
        assert result.appliance.powered is True
        pir_idx = result.log.index("[t=100] PIR TRIGGERED")
        assert not any("APPLIANCE" in line for line in result.log[:pir_idx])

    def test_gate_soundness_log_ordering(self):
        rng = Random(99)
        for case in range(50):
            kind = rng.choice(list(GestureKind))
            trace = generate_gesture(kind, rng.randint(8, 48), seed=case)
            pir_at = rng.choice([None, 0, 100, 500])
            result = run_pipeline(
                trace,
                link_cfg=LinkConfig(loss_probability=rng.random() * 0.4, seed=case),
                pir_at=pir_at,
            )
            pir_seen = False
            for line in result.log:
                if "PIR TRIGGERED" in line:
                    pir_seen = True
                if "APPLIANCE" in line:
                    assert pir_seen
            if pir_at is None:
                assert result.appliance.powered is False

    def test_transitions_subsequence_of_debounced_actions(self):
        result = run_pipeline(vertical_trace(64, seed=10), pir_at=0)
        transitions = [l for l in result.log if "APPLIANCE" in l]
        emitted = [f"[t={t}] APPLIANCE light -> {a.value}" for t, a in result.actions]
        it = iter(emitted)
        assert all(any(tr == e for e in it) for tr in transitions)


def per_frame_pipeline(trace, link_cfg, modem_cfg, pir_at=0):
    """Reference pipeline: one frame at a time through the scalar PHY calls,
    frame i with noise seed modem_cfg.seed + i, then the same event loop."""
    profile = CalibrationProfile()
    log = []
    sim = LinkSimulator(link_cfg, log=log)
    ctrl = HomeController(log=log)
    gate = Debouncer(profile.debounce_n)
    window = deque(maxlen=profile.window_size)
    actions = []
    counts = {"corrupted": 0, "windows": 0}
    pir_pending = pir_at is not None

    def consume(events):
        for ev in events:
            if ev.kind is not EventKind.FRAME_DELIVERED:
                continue
            window.append(AccelSample(t=ev.t, x=ev.frame.x, y=ev.frame.y, z=ev.frame.z))
            if len(window) < profile.window_size:
                continue
            verdict = classify_window(window, profile)
            counts["windows"] += 1
            log.append(f"[t={ev.t}] ACTION {verdict.value}")
            emitted = gate.push(verdict)
            if emitted is not None:
                actions.append((ev.t, emitted))
                ctrl.apply_action(emitted, ev.t)

    def advance(t):
        nonlocal pir_pending
        if pir_pending and pir_at <= t:
            consume(sim.run_until(max(pir_at, sim.now)))
            ctrl.pir_trigger(pir_at)
            pir_pending = False
        consume(sim.run_until(t))

    sim.ap_start()
    sim.watch_set_mode(WatchMode.ACC)
    for i, sample in enumerate(trace):
        advance(sample.t)
        bits = serialize(CodecFrame(WatchMode.ACC, sample.x, sample.y, sample.z))
        hop_cfg = replace(modem_cfg, seed=(modem_cfg.seed + i) % 2**64)
        rx_bits = demodulate(channel_apply(modulate(bits), hop_cfg))
        try:
            decoded = deserialize(rx_bits)
        except DecodeError:
            counts["corrupted"] += 1
            log.append(f"[t={sample.t}] FRAME_CORRUPTED codec integrity check failed")
            continue
        sim.transmit_sample(AccelSample(t=sample.t, x=decoded.x, y=decoded.y, z=decoded.z))
    advance(trace.samples[-1].t + link_cfg.latency)
    return {
        "log": log,
        "actions": actions,
        "appliance": ctrl.appliance,
        "frames_sent": sim.sent_count,
        "frames_delivered": sim.delivered_count,
        "frames_lost": sim.lost_count,
        "frames_corrupted": counts["corrupted"],
        "windows_classified": counts["windows"],
    }


class TestBlockPhyMatchesPerFrameReference:
    """Block batching of the radio path must not change any output."""

    LENGTHS = (1, PHY_BLOCK_FRAMES, PHY_BLOCK_FRAMES + 1, 2 * PHY_BLOCK_FRAMES + 22)

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 2])
    def test_identical_to_per_frame_reference(self, seed, sigma, loss):
        link_cfg = LinkConfig(loss_probability=loss, seed=seed)
        modem_cfg = ModemConfig(noise_sigma=sigma, seed=seed)
        for n in self.LENGTHS:
            trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed=seed % 100)
            result = run_pipeline(trace, link_cfg=link_cfg, modem_cfg=modem_cfg)
            expected = per_frame_pipeline(trace, link_cfg, modem_cfg)
            assert result.log == expected["log"], n
            assert result.actions == expected["actions"]
            assert result.appliance == expected["appliance"]
            for name in (
                "frames_sent",
                "frames_delivered",
                "frames_lost",
                "frames_corrupted",
                "windows_classified",
            ):
                assert getattr(result, name) == expected[name], (n, name)
