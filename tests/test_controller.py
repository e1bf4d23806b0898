import math
from collections import deque
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristlink.classify import Action, CalibrationProfile, Debouncer, classify_window
from wristlink.controller import PHY_BLOCK_FRAMES, HomeController, run_pipeline
from wristlink.framing import CodecFrame, DecodeError, WatchMode, deserialize, serialize
from wristlink.link import LinkConfig, LinkSimulator
from wristlink.modem import ModemConfig, channel_apply, demodulate, modulate
from wristlink.sensor import (
    AccelSample,
    GestureKind,
    Trace,
    check_counts,
    check_int,
    generate_gesture,
)


class TestHomeController:
    def test_trigger_arms(self):
        ctrl = HomeController()
        assert ctrl.armed is False
        ctrl.pir_trigger(5)
        assert ctrl.armed is True
        assert ctrl.log == ["[t=5] PIR TRIGGERED"]

    def test_retrigger_refreshes_timestamp(self):
        ctrl = HomeController()
        ctrl.pir_trigger(5)
        ctrl.pir_trigger(9)
        assert ctrl.armed is True

    def test_armed_on_powers_appliance(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        assert ctrl.apply_action(Action.ON, 10) is None
        assert ctrl.powered is True
        assert "[t=10] APPLIANCE light -> ON" in ctrl.log

    def test_armed_on_when_already_on_logs_nothing(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        before = list(ctrl.log)
        ctrl.apply_action(Action.ON, 20)
        assert ctrl.log == before
        assert ctrl.powered is True

    def test_unarmed_actions_ignored(self):
        ctrl = HomeController()
        ctrl.apply_action(Action.ON, 10)
        assert ctrl.powered is False
        assert ctrl.log == []

    def test_armed_off_cuts_power(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        ctrl.apply_action(Action.OFF, 20)
        assert ctrl.powered is False
        assert "[t=20] APPLIANCE light -> OFF" in ctrl.log

    @pytest.mark.parametrize("armed", [True, False])
    @pytest.mark.parametrize("action", ["ON", None, True])
    def test_non_action_rejected(self, action, armed):
        ctrl = HomeController()
        if armed:
            ctrl.pir_trigger(0)
        before = list(ctrl.log)
        with pytest.raises(ValueError, match=f"must be an Action, got {action!r}"):
            ctrl.apply_action(action, 5)
        assert ctrl.log == before and ctrl.powered is False

    def test_do_nothing_changes_nothing(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        ctrl.apply_action(Action.DO_NOTHING, 20)
        assert ctrl.powered is True


def vertical_trace(n=32, seed=1):
    return generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed)


class TestRunPipeline:
    def test_vertical_trace_powers_on(self):
        result = run_pipeline(vertical_trace(), link_cfg=LinkConfig(loss_probability=0.0), pir_at=0)
        assert result.powered is True
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
        assert result.powered is False
        assert not any("APPLIANCE" in line for line in result.log)
        # the classifier still ran; only the gate blocked the transition
        assert any("ACTION ON" in line for line in result.log)

    def test_horizontal_after_on_turns_off(self):
        on = run_pipeline(vertical_trace(), pir_at=0)
        assert on.powered is True
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
        assert result.powered is False

    def test_delivered_payloads_equal_transmitted_samples_when_clean(self):
        trace = vertical_trace(24, seed=9)
        result = run_pipeline(trace, pir_at=0)
        delivered = [
            line.split(" FRAME_DELIVERED ")[1]
            for line in result.log
            if " FRAME_DELIVERED " in line
        ]
        assert delivered == [
            f"frame={i} mode=ACC x={s.x} y={s.y} z={s.z}" for i, s in enumerate(trace)
        ]

    def test_each_frame_range_checked_once(self, monkeypatch):
        # one check, for the frame encoded from each sample; the decoded
        # fields go on the link as columns, already bounded by their width
        trace = vertical_trace(200, seed=9)
        calls = []

        def counting_check(x, y, z):
            calls.append((x, y, z))
            return check_counts(x, y, z)

        monkeypatch.setattr("wristlink.framing.check_counts", counting_check)
        monkeypatch.setattr("wristlink.sensor.check_counts", counting_check)
        result = run_pipeline(trace, pir_at=0)
        assert result.frames_sent == 200
        assert calls == [(s.x, s.y, s.z) for s in trace]

    def test_link_core_rechecks_no_integer(self, monkeypatch):
        # the Trace checked the step times and run_pipeline checked pir_at,
        # so the link's core takes its steps and send indices unchecked
        trace = vertical_trace(200, seed=9)
        link_cfg = LinkConfig()  # built before the patch: its own checks are not counted
        calls = []

        def counting_check(*args):
            calls.append(args)
            return check_int(*args)

        monkeypatch.setattr("wristlink.link.check_int", counting_check)
        result = run_pipeline(trace, link_cfg=link_cfg, pir_at=0)
        assert result.frames_sent == 200
        assert calls == []

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_waveforms_only_above_sigma_zero(self, monkeypatch, sigma):
        # at sigma 0 one 2-bit call decides every bit of the run; above it,
        # each block of PHY_BLOCK_FRAMES frames goes as waveforms
        trace = vertical_trace(200, seed=9)
        calls = []

        def counting_modulate(bits):
            calls.append(np.asarray(bits).size)
            return modulate(bits)

        monkeypatch.setattr("wristlink.controller.modulate", counting_modulate)
        run_pipeline(trace, modem_cfg=ModemConfig(noise_sigma=sigma), pir_at=0)
        if sigma == 0:
            assert calls == [2]
        else:
            assert len(calls) == math.ceil(len(trace) / PHY_BLOCK_FRAMES)
            assert sum(calls) == 48 * len(trace)

    def test_idle_trace_never_acts(self):
        result = run_pipeline(generate_gesture(GestureKind.OTHER, 32, seed=3), pir_at=0)
        assert result.actions == []
        assert result.powered is False
        assert result.windows_classified == 32 - 16 + 1

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(Trace(()))

    def test_non_trace_rejected_naming_its_type(self):
        with pytest.raises(ValueError, match="^trace must be a Trace, got list$"):
            run_pipeline([AccelSample(0, 1, 2, 3)])

    def test_pipeline_reads_only_the_columns(self, monkeypatch):
        # run_pipeline takes times and counts from the trace's columns and
        # builds no AccelSample row
        trace = vertical_trace(200, seed=9)
        want = run_pipeline(trace, pir_at=0)

        def no_rows(self):
            raise AssertionError("run_pipeline read trace.samples")

        monkeypatch.setattr(Trace, "samples", property(no_rows))
        monkeypatch.setattr(AccelSample, "__post_init__", no_rows)
        assert run_pipeline(trace, pir_at=0) == want

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_noiseless_trace_decoded_in_one_block(self, monkeypatch, sigma):
        # at sigma 0 no waveform bounds the block, so one deserialize call
        # decodes the whole trace; above it, each block decodes on its own
        trace = vertical_trace(200, seed=9)
        calls = []

        def counting_deserialize(bits):
            calls.append(len(bits))
            return deserialize(bits)

        monkeypatch.setattr("wristlink.controller.deserialize", counting_deserialize)
        run_pipeline(trace, modem_cfg=ModemConfig(noise_sigma=sigma), pir_at=0)
        if sigma == 0:
            assert calls == [len(trace)]
        else:
            blocks = range(0, len(trace), PHY_BLOCK_FRAMES)
            assert calls == [min(PHY_BLOCK_FRAMES, len(trace) - start) for start in blocks]

    def test_negative_pir_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(vertical_trace(), pir_at=-1)

    def test_deterministic_logs(self):
        link_cfg = LinkConfig(loss_probability=0.25, latency=10, seed=5)
        modem_cfg = ModemConfig(noise_sigma=0.3, seed=7)
        a = run_pipeline(vertical_trace(), link_cfg=link_cfg, modem_cfg=modem_cfg)
        b = run_pipeline(vertical_trace(), link_cfg=link_cfg, modem_cfg=modem_cfg)
        assert a.log == b.log
        assert a.powered == b.powered

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

    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
    def test_frames_lost_matches_loss_probability(self, p):
        # on a noiseless channel every frame reaches the link, and each is
        # lost independently with probability p: Binomial(n, p)
        n = 3000
        result = run_pipeline(
            vertical_trace(n, seed=5),
            link_cfg=LinkConfig(loss_probability=p, seed=2017),
            pir_at=None,
        )
        assert result.frames_corrupted == 0 and result.frames_sent == n
        z = (result.frames_lost - n * p) / math.sqrt(n * p * (1 - p))
        assert abs(z) < 3, f"{result.frames_lost} of {n} vs {n * p:.1f}: z={z:.2f}"

    @pytest.mark.parametrize("n, seed", [(64, 8), (200, 1)])
    def test_pir_after_debounced_emission_rearms_the_debouncer(self, n, seed):
        # the gesture's debounced ON fires at t=330, before the presence
        # trigger, and the unarmed controller ignores it; the trigger at
        # t=400 starts a fresh debouncer, so the ON gesturing that goes on
        # fires again and the appliance ends on
        result = run_pipeline(vertical_trace(n, seed), pir_at=400)
        assert result.actions == [(330, Action.ON), (430, Action.ON)]
        pir_idx = result.log.index("[t=400] PIR TRIGGERED")
        assert result.log.index("[t=430] APPLIANCE light -> ON") > pir_idx
        assert result.powered is True

    def test_delivery_at_the_trigger_time_is_consumed_before_it(self):
        # the window delivered at t=330 completes the ON run while the gate
        # is unarmed; the trigger at t=330 comes after it and discards the
        # run, so the ON fires again two windows later, at t=370
        result = run_pipeline(vertical_trace(64, seed=8), pir_at=330)
        assert result.actions == [(330, Action.ON), (370, Action.ON)]
        at_330 = [line for line in result.log if line.startswith("[t=330] ")]
        assert at_330[-2:] == ["[t=330] ACTION ON", "[t=330] PIR TRIGGERED"]
        assert [line for line in result.log if "APPLIANCE" in line] == [
            "[t=370] APPLIANCE light -> ON"
        ]

    def test_pir_before_streaming_honors_the_action(self):
        result = run_pipeline(vertical_trace(64, seed=8), pir_at=100)
        assert result.powered is True
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
                assert result.powered is False

    def test_transitions_subsequence_of_debounced_actions(self):
        result = run_pipeline(vertical_trace(64, seed=10), pir_at=0)
        transitions = [l for l in result.log if "APPLIANCE" in l]
        emitted = [f"[t={t}] APPLIANCE light -> {a.value}" for t, a in result.actions]
        it = iter(emitted)
        assert all(any(tr == e for e in it) for tr in transitions)


def per_frame_pipeline(trace, link_cfg, modem_cfg, pir_at=0, profile=None):
    """Reference pipeline: one frame at a time through the scalar PHY calls,
    frame i with noise seed modem_cfg.seed + i, then a per-sample event loop
    over the scalar link calls: advance to the sample's time, consuming the
    deliveries due, then send its frame."""
    profile = profile if profile is not None else CalibrationProfile()
    log = []
    sim = LinkSimulator(link_cfg, log=log)
    ctrl = HomeController(log=log)
    gate = Debouncer(profile.debounce_n)
    window = deque(maxlen=profile.window_size)
    actions = []
    counts = {"corrupted": 0, "windows": 0}
    pir_pending = pir_at is not None

    def consume(block):
        for t, frame in zip(block.t, block.frame):
            window.append(AccelSample(t=t, x=frame.x, y=frame.y, z=frame.z))
            if len(window) < profile.window_size:
                continue
            verdict = classify_window(window, profile)
            counts["windows"] += 1
            log.append(f"[t={t}] ACTION {verdict.value}")
            emitted = gate.push(verdict)
            if emitted is not None:
                actions.append((t, emitted))
                ctrl.apply_action(emitted, t)

    def advance(t):
        nonlocal gate, pir_pending
        if pir_pending and pir_at <= t:
            consume(sim.run_until(max(pir_at, sim.now)))
            ctrl.pir_trigger(pir_at)
            gate = Debouncer(profile.debounce_n)
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
        sim.transmit_sample(decoded)
    advance(trace.samples[-1].t + link_cfg.latency)
    return {
        "log": log,
        "actions": actions,
        "powered": ctrl.powered,
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
            assert result.powered == expected["powered"]
            for name in (
                "frames_sent",
                "frames_delivered",
                "frames_lost",
                "frames_corrupted",
                "windows_classified",
            ):
                assert getattr(result, name) == expected[name], (n, name)


def assert_matches_reference(trace, link_cfg, modem_cfg, pir_at, profile):
    result = run_pipeline(
        trace, profile=profile, link_cfg=link_cfg, modem_cfg=modem_cfg, pir_at=pir_at
    )
    expected = per_frame_pipeline(trace, link_cfg, modem_cfg, pir_at=pir_at, profile=profile)
    assert result.log == expected["log"]
    assert result.actions == expected["actions"]
    assert result.powered == expected["powered"]
    for name in (
        "frames_sent",
        "frames_delivered",
        "frames_lost",
        "frames_corrupted",
        "windows_classified",
    ):
        assert getattr(result, name) == expected[name], name


def gesture_trace(times, split, seed):
    """Vertical-gesture samples up to index `split`, horizontal ones after,
    at the given strictly increasing times."""
    n = len(times)
    up = generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed).samples
    side = generate_gesture(GestureKind.HORIZONTAL, n, seed + 1).samples
    return Trace(tuple(replace(s, t=t) for s, t in zip(up[:split] + side[split:], times)))


PIR_CASES = ("never", "zero", "sample", "delivery", "between", "past_drain")


def pir_time(case, times, latency, rng):
    """A presence-trigger time of the named kind for a trace at `times`."""
    if case == "never":
        return None
    if case == "zero":
        return 0
    if case == "sample":
        return rng.choice(times)
    if case == "delivery":  # the due time of some frame
        return rng.choice(times) + latency
    if case == "between":  # strictly between two samples
        wide = [(a, b) for a, b in zip(times, times[1:]) if b - a > 1]
        a, b = rng.choice(wide)
        return rng.randint(a + 1, b - 1)
    return times[-1] + latency + 1  # the link is drained by then


class TestEventCoreMatchesPerSampleLoop:
    """The block event core against the per-sample reference loop, on the
    gate, latency, window and channel settings where their orders could
    part: latency 0 (a frame due at its own send time arrives at the next
    sample), a trigger on a sample or a delivery time, between samples or
    never, windows and debounce counts from 1 up, and total loss."""

    CHANNELS = [(loss, sigma) for loss in (0.0, 0.2, 1.0) for sigma in (0.0, 0.8)]

    @pytest.mark.parametrize("window, debounce", [(w, d) for w in (1, 3, 16) for d in (1, 3)])
    @pytest.mark.parametrize("pir_case", PIR_CASES)
    @pytest.mark.parametrize("latency", [0, 1, 10, 45, "beyond"])
    def test_grid(self, latency, pir_case, window, debounce):
        rng = Random(f"{latency}-{pir_case}-{window}-{debounce}")
        n = rng.randint(20, 40)
        gaps = [rng.randint(1, 30) for _ in range(n - 1)]
        gaps[0] = max(gaps[0], 2)  # room for a trigger between two samples
        times = [rng.randint(0, 30)]
        for gap in gaps:
            times.append(times[-1] + gap)
        if latency == "beyond":  # longer than the whole trace
            latency = times[-1] - times[0] + rng.randint(1, 50)
        trace = gesture_trace(times, rng.randint(0, n), rng.randrange(1000))
        profile = CalibrationProfile(window_size=window, debounce_n=debounce)
        pir_at = pir_time(pir_case, times, latency, rng)
        # always the clean channel, and one more of the others
        for loss, sigma in (self.CHANNELS[0], rng.choice(self.CHANNELS[1:])):
            seed = rng.randrange(2**32)
            assert_matches_reference(
                trace,
                LinkConfig(loss_probability=loss, latency=latency, seed=seed),
                ModemConfig(noise_sigma=sigma, seed=seed),
                pir_at,
                profile,
            )

    @settings(max_examples=120, deadline=None)
    @given(
        gaps=st.lists(st.integers(1, 40), min_size=1, max_size=45),
        start=st.integers(0, 100),
        latency=st.sampled_from([0, 1, 10, 45, 10**4]),
        pir_case=st.sampled_from(PIR_CASES),
        window=st.sampled_from([1, 3, 16]),
        debounce=st.sampled_from([1, 3]),
        channel=st.sampled_from(CHANNELS),
        seed=st.integers(0, 2**32),
    )
    def test_property(self, gaps, start, latency, pir_case, window, debounce, channel, seed):
        times = [start]
        for gap in gaps:
            times.append(times[-1] + gap)
        if pir_case == "between" and max(gaps) < 2:
            pir_case = "past_drain"
        rng = Random(seed)
        trace = gesture_trace(times, rng.randint(0, len(times)), seed % 1000)
        loss, sigma = channel
        assert_matches_reference(
            trace,
            LinkConfig(loss_probability=loss, latency=latency, seed=seed),
            ModemConfig(noise_sigma=sigma, seed=seed),
            pir_time(pir_case, times, latency, rng),
            CalibrationProfile(window_size=window, debounce_n=debounce),
        )

    def test_latency_zero_delivers_at_the_next_sample(self):
        # due at its own send time, a frame is logged after its FRAME_SENT
        # line, with the next sample's deliveries; the last one at the drain
        result = run_pipeline(
            vertical_trace(3, seed=1),
            link_cfg=LinkConfig(latency=0),
            profile=CalibrationProfile(window_size=1, debounce_n=1),
            pir_at=None,
        )
        frame_lines = [
            line.split(" mode=")[0] for line in result.log if " FRAME_" in line
        ]
        assert frame_lines == [
            "[t=0] FRAME_SENT frame=0",
            "[t=0] FRAME_DELIVERED frame=0",
            "[t=20] FRAME_SENT frame=1",
            "[t=20] FRAME_DELIVERED frame=1",
            "[t=40] FRAME_SENT frame=2",
            "[t=40] FRAME_DELIVERED frame=2",
        ]
        assert result.log.index("[t=0] ACTION ON") < result.log.index(
            "[t=20] FRAME_SENT frame=1 mode=ACC x=185 y=176 z=276"
        )


    def test_a_group_logs_its_deliveries_before_their_actions(self):
        # the drain delivers the last three frames; their ACTION lines follow
        # all three FRAME_DELIVERED lines, so the times step back
        result = run_pipeline(
            generate_gesture(GestureKind.VERTICAL_UP_DOWN, 20, seed=1),
            link_cfg=LinkConfig(latency=45),
            profile=CalibrationProfile(window_size=3, debounce_n=1),
            pir_at=5,
        )
        assert [line.split(" mode=")[0] for line in result.log[-6:]] == [
            "[t=385] FRAME_DELIVERED frame=17",
            "[t=405] FRAME_DELIVERED frame=18",
            "[t=425] FRAME_DELIVERED frame=19",
            "[t=385] ACTION ON",
            "[t=405] ACTION ON",
            "[t=425] ACTION ON",
        ]


class TestIntegerEdges:
    """Times and band ends are Python ints of any size: nothing wraps at 2**63."""

    TRACE = Trace(
        (AccelSample(t=2**62 - 20, x=1, y=2, z=3), AccelSample(t=2**62, x=4, y=5, z=6))
    )
    ONE = CalibrationProfile(window_size=1, debounce_n=1)

    def test_delivery_past_int64(self):
        result = run_pipeline(self.TRACE, link_cfg=LinkConfig(latency=2**62), profile=self.ONE)
        assert result.log[3:] == [
            "[t=0] PIR TRIGGERED",
            "[t=4611686018427387884] FRAME_SENT frame=0 mode=ACC x=1 y=2 z=3",
            "[t=4611686018427387904] FRAME_SENT frame=1 mode=ACC x=4 y=5 z=6",
            "[t=9223372036854775788] FRAME_DELIVERED frame=0 mode=ACC x=1 y=2 z=3",
            "[t=9223372036854775788] ACQUIRE_ANNOUNCED",
            "Acquiring data from accelerometer sensor",
            "[t=9223372036854775808] FRAME_DELIVERED frame=1 mode=ACC x=4 y=5 z=6",
            "[t=9223372036854775788] ACTION DO_NOTHING",
            "[t=9223372036854775808] ACTION DO_NOTHING",
        ]

    def test_latency_past_int64_with_a_trigger_between_deliveries(self):
        result = run_pipeline(
            self.TRACE,
            link_cfg=LinkConfig(latency=2**70),
            profile=self.ONE,
            pir_at=2**70 + 2**62 - 10,
        )
        assert result.log[3:] == [
            "[t=4611686018427387884] FRAME_SENT frame=0 mode=ACC x=1 y=2 z=3",
            "[t=4611686018427387904] FRAME_SENT frame=1 mode=ACC x=4 y=5 z=6",
            "[t=1185203306735838691308] FRAME_DELIVERED frame=0 mode=ACC x=1 y=2 z=3",
            "[t=1185203306735838691308] ACQUIRE_ANNOUNCED",
            "Acquiring data from accelerometer sensor",
            "[t=1185203306735838691308] ACTION DO_NOTHING",
            "[t=1185203306735838691318] PIR TRIGGERED",
            "[t=1185203306735838691328] FRAME_DELIVERED frame=1 mode=ACC x=4 y=5 z=6",
            "[t=1185203306735838691328] ACTION DO_NOTHING",
        ]

    @pytest.mark.parametrize(
        "on_band, off_band, window, expected",
        [
            ((-10**30, 10**30), (10**30 + 1, 10**30 + 2), 2, ["ON"] * 5),
            ((-10**30, -10**30), (-10**30 + 1, 10**30), 2, ["OFF"] * 5),
            ((10**30, 10**30), (-10**30, 10**30 - 1), 3, ["OFF"] * 4),
            ((10**30, 10**30 + 1), (-10**30, -1), 3, ["DO_NOTHING"] * 4),
        ],
    )
    def test_band_ends_past_int64(self, on_band, off_band, window, expected):
        profile = CalibrationProfile(
            on_band=on_band, off_band=off_band, window_size=window, debounce_n=1
        )
        result = run_pipeline(vertical_trace(6, seed=1), profile=profile)
        verdicts = [line.split()[-1] for line in result.log if " ACTION " in line]
        assert verdicts == expected
        assert result.powered is (expected[0] == "ON")
