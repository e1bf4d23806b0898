import gc
import math
import re
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import models
from wristlink.classify import Action, CalibrationProfile, debounced_stream
from wristlink.controller import _RENDER_FRAMES, HomeController, run_pipeline
from wristlink.framing import (
    FRAME_BITS,
    SYNC_BITS,
    CodecFrame,
    WatchMode,
    deserialize,
    serialize,
)
from wristlink.link import ACQUIRING_MESSAGE, LinkConfig
from wristlink.modem import (
    BLOCK_SAMPLES,
    SAMPLES_PER_BIT,
    ModemConfig,
    channel_apply,
    demodulate,
    modulate,
)
from wristlink.sensor import (
    TIME_MAX,
    AccelSample,
    GestureKind,
    Trace,
    _row_fault,
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
        message = f"^action must be an Action, got {type(action).__name__}$"
        with pytest.raises(ValueError, match=message):
            ctrl.apply_action(action, 5)
        assert ctrl.log == before and ctrl.powered is False

    def test_do_nothing_changes_nothing(self):
        ctrl = HomeController()
        ctrl.pir_trigger(0)
        ctrl.apply_action(Action.ON, 10)
        ctrl.apply_action(Action.DO_NOTHING, 20)
        assert ctrl.powered is True


# frames per block of the radio path above sigma 0 (modem.send_gated)
BLOCK_FRAMES = BLOCK_SAMPLES // (FRAME_BITS * SAMPLES_PER_BIT)


def vertical_trace(n=32, seed=1):
    return generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed)


def preamble_survivors(trace, modem_cfg):
    """(first frame, indices of the frames whose preamble decodes as sent)
    for each radio-path block, each preamble sent alone as a one-frame
    call with frame i's noise seed modem_cfg.seed + i: the first
    SYNC_BITS * SAMPLES_PER_BIT normals of that frame's stream."""
    sync = serialize(CodecFrame(WatchMode.ACC, 0, 0, 0))[:SYNC_BITS]
    survives = [
        demodulate(
            channel_apply(modulate(sync), replace(modem_cfg, seed=(modem_cfg.seed + i) % 2**64))
        )
        == sync
        for i in range(len(trace))
    ]
    return [
        (start, [i for i in range(start, min(start + BLOCK_FRAMES, len(trace))) if survives[i]])
        for start in range(0, len(trace), BLOCK_FRAMES)
    ]


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
        # the Trace checks its columns once, as one int64 block; the frame
        # of each sample is a view of a row of them, and the decoded fields go on the link
        # as columns, already bounded by their width, so no frame's counts
        # are checked again
        column_checks, count_checks = [], []

        def counting_columns(columns):
            column_checks.append(columns)
            return _row_fault(columns)

        def counting_counts(x, y, z):
            count_checks.append((x, y, z))
            return check_counts(x, y, z)

        monkeypatch.setattr("wristlink.sensor._row_fault", counting_columns)
        monkeypatch.setattr("wristlink.framing.check_counts", counting_counts)
        monkeypatch.setattr("wristlink.sensor.check_counts", counting_counts)
        trace = vertical_trace(200, seed=9)
        result = run_pipeline(trace, pir_at=0)
        assert result.frames_sent == 200
        assert len(column_checks) == 1
        assert np.array_equal(column_checks[0][1:], [trace.x, trace.y, trace.z])
        assert count_checks == []

    def test_clean_run_wakes_no_garbage_collector(self):
        # every per-sample object of a noiseless run dies on the line that
        # built it: frames are views serialized at once, and the link and
        # the renderer hold columns of ints, not a tuple or a list per frame
        trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, 2000, seed=3)
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        thresholds = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        try:
            gc.collect()
            gc.callbacks.append(count)
            try:
                result = run_pipeline(trace, modem_cfg=ModemConfig(noise_sigma=0.0))
            finally:
                gc.callbacks.remove(count)
        finally:
            gc.set_threshold(*thresholds)
        assert result.frames_delivered == 2000
        assert collections == []

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

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.5])
    def test_waveforms_only_above_sigma_zero(self, monkeypatch, sigma):
        # at sigma 0 one 2-bit call decides every bit of the run; above it,
        # modem.send_gated sends every frame's preamble of each block of
        # BLOCK_FRAMES frames as waveforms, then the other bits of only the
        # frames whose preamble survived
        trace = vertical_trace(200, seed=9)
        modem_cfg = ModemConfig(noise_sigma=sigma)
        calls = []

        def recording_modulate(bits):
            calls.append(np.array(bits))
            return modulate(bits)

        monkeypatch.setattr("wristlink.controller.modulate", recording_modulate)
        monkeypatch.setattr("wristlink.modem.modulate", recording_modulate)
        run_pipeline(trace, modem_cfg=modem_cfg, pir_at=0)
        if sigma == 0:
            assert [bits.size for bits in calls] == [2]
            return
        acc = np.full(len(trace), int(WatchMode.ACC))
        wire = serialize(np.column_stack([acc, trace.x, trace.y, trace.z]))
        expected = []
        for start, kept in preamble_survivors(trace, modem_cfg):
            expected.append(wire[start : start + BLOCK_FRAMES, :SYNC_BITS])
            if kept:
                expected.append(wire[kept, SYNC_BITS:])
        assert len(calls) == len(expected)
        for bits, want in zip(calls, expected):
            np.testing.assert_array_equal(bits, want)

    def test_gate_cases_keep_some_preambles_and_reject_others(self):
        # the sigma 1.5 cases above and below tell a gated path from an
        # ungated one only if some preambles fail and some survive
        trace = vertical_trace(200, seed=9)
        survivors = preamble_survivors(trace, ModemConfig(noise_sigma=1.5))
        assert 0 < sum(len(kept) for _, kept in survivors) < len(trace)

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

    def test_non_profile_rejected_naming_its_type(self):
        trace = vertical_trace(20, seed=9)
        with pytest.raises(ValueError, match="^profile must be a CalibrationProfile, got dict$"):
            run_pipeline(trace, profile={"window_size": 16})

    def test_non_link_config_rejected_naming_its_type(self):
        trace = vertical_trace(20, seed=9)
        with pytest.raises(ValueError, match="^link_cfg must be a LinkConfig, got dict$"):
            run_pipeline(trace, link_cfg={})

    def test_non_modem_config_rejected_naming_its_type(self):
        trace = vertical_trace(20, seed=9)
        with pytest.raises(ValueError, match="^modem_cfg must be a ModemConfig, got dict$"):
            run_pipeline(trace, modem_cfg={"noise_sigma": 0})

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

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.5])
    def test_received_frames_decoded_in_one_call(self, monkeypatch, sigma):
        # one deserialize call decodes the received frames: at sigma 0 the
        # whole trace, above it only the frames whose preamble survived
        trace = vertical_trace(200, seed=9)
        modem_cfg = ModemConfig(noise_sigma=sigma)
        calls = []

        def counting_deserialize(bits):
            calls.append(len(bits))
            return deserialize(bits)

        monkeypatch.setattr("wristlink.controller.deserialize", counting_deserialize)
        run_pipeline(trace, modem_cfg=modem_cfg, pir_at=0)
        if sigma == 0:
            assert calls == [len(trace)]
        else:
            survivors = preamble_survivors(trace, modem_cfg)
            assert calls == [sum(len(kept) for _, kept in survivors)]

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

    def test_controller_stage_is_the_class(self, monkeypatch):
        # the pipeline's controller is a HomeController, patched here on the
        # class as perfbench's tracer patches it: one apply_action call per
        # armed emission, in order, whether it switches the light or not;
        # the ON emitted before the late trigger is never applied
        parts = [
            generate_gesture(kind, 40, seed)
            for kind, seed in ((GestureKind.VERTICAL_UP_DOWN, 1), (GestureKind.HORIZONTAL, 2))
            * 2
        ]
        trace = Trace.from_columns(
            np.arange(160) * 20, *(np.concatenate([getattr(p, a) for p in parts]) for a in "xyz")
        )
        calls = []
        apply_action = HomeController.apply_action

        def counting_apply(self, action, t):
            calls.append((t, action))
            return apply_action(self, action, t)

        monkeypatch.setattr(HomeController, "apply_action", counting_apply)
        result = run_pipeline(trace, pir_at=1005)
        assert result.actions == [
            (330, Action.ON), (1070, Action.OFF), (1790, Action.ON), (2670, Action.OFF)
        ]
        assert calls == result.actions[1:]
        assert [line for line in result.log if " APPLIANCE " in line] == [
            "[t=1790] APPLIANCE light -> ON",
            "[t=2670] APPLIANCE light -> OFF",
        ]

    def test_transitions_subsequence_of_debounced_actions(self):
        result = run_pipeline(vertical_trace(64, seed=10), pir_at=0)
        transitions = [l for l in result.log if "APPLIANCE" in l]
        emitted = [f"[t={t}] APPLIANCE light -> {a.value}" for t, a in result.actions]
        it = iter(emitted)
        assert all(any(tr == e for e in it) for tr in transitions)


def per_frame_pipeline(trace, link_cfg, modem_cfg, pir_at=0, profile=None):
    """Reference pipeline on the plain models of tests/models.py, which
    share no code with the package: of it, only modulate, channel_apply and
    demodulate run here. Frame i is encoded by the bitwise codec model and
    sent whole, alone, its noise drawn from a Generator built here from
    seed modem_cfg.seed + i, then decoded by the model. A per-sample event loop over the link model steps to each
    sample's time, delivering the frames due by then, and then sends the
    sample's frame if it decoded. The trigger is a step of its own, before
    the first sample at or after pir_at, or before the drain when pir_at
    is at most the drain time; the drain is a last step at the last
    sample's time + latency. The default profile is README's."""
    log = []
    link = models.Link(link_cfg.loss_probability, link_cfg.latency, link_cfg.seed, log)
    ctrl = models.Controller(models.DEFAULT if profile is None else profile, log)
    corrupted = 0
    times = trace.t.tolist()
    drain = times[-1] + link_cfg.latency
    pir_pending = pir_at is not None and pir_at <= drain

    def step(t):
        for due, (_, y, z) in link.step(t):
            ctrl.deliver(due, y, z)

    def trigger_by(t):
        nonlocal pir_pending
        if pir_pending and pir_at <= t:
            step(pir_at)
            ctrl.trigger(pir_at)
            pir_pending = False

    rows = zip(times, trace.x.tolist(), trace.y.tolist(), trace.z.tolist())
    for i, (t, *xyz) in enumerate(rows):
        trigger_by(t)
        step(t)
        # README's noise contract: frame i draws from default_rng(seed + i)
        noise = [np.random.default_rng((modem_cfg.seed + i) % 2**64)]
        waveform = channel_apply(modulate(models.encode(models.ACC, *xyz)), modem_cfg, noise)
        decoded = models.decode(demodulate(waveform))
        if decoded is None:
            corrupted += 1
            log.append(f"[t={t}] FRAME_CORRUPTED codec integrity check failed")
        else:
            link.send(t, decoded[1:])
    trigger_by(drain)
    step(drain)
    return {
        "log": log,
        "actions": ctrl.actions,
        "powered": ctrl.powered,
        "frames_sent": link.sent,
        "frames_delivered": link.delivered,
        "frames_lost": link.lost,
        "frames_corrupted": corrupted,
        "windows_classified": ctrl.windows,
    }


def assert_matches_reference(trace, link_cfg, modem_cfg, pir_at=0, profile=None):
    """run_pipeline's log, actions, power state and counters are those of
    per_frame_pipeline; an action is compared by its ACTION line's text."""
    result = run_pipeline(
        trace, profile=profile, link_cfg=link_cfg, modem_cfg=modem_cfg, pir_at=pir_at
    )
    expected = per_frame_pipeline(trace, link_cfg, modem_cfg, pir_at=pir_at, profile=profile)
    assert result.log == expected["log"]
    assert [(t, action.value) for t, action in result.actions] == expected["actions"]
    assert result.powered == expected["powered"]
    for name in (
        "frames_sent",
        "frames_delivered",
        "frames_lost",
        "frames_corrupted",
        "windows_classified",
    ):
        assert getattr(result, name) == expected[name], name


class TestBlockPhyMatchesPerFrameReference:
    """Block batching and the preamble gate of the radio path must not
    change any output: the reference sends every frame whole. At sigma 1.5
    most preambles fail and at 4.0 nearly all (99%), so blocks with few and
    with no surviving frames both occur."""

    LENGTHS = (1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 22)
    SEEDS = (0, 1, 7, 2**64 - 2)

    @pytest.mark.parametrize("loss", [0.0, 0.2])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 1.5, 4.0])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_identical_to_per_frame_reference(self, seed, sigma, loss):
        self.check(seed, ModemConfig(noise_sigma=sigma, seed=seed), loss)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_attenuated_identical_to_per_frame_reference(self, seed, sigma):
        # at attenuation 0.6 the bit error rate at sigma 1.0 is that of
        # sigma 1.67 unattenuated
        self.check(seed, ModemConfig(channel_attenuation=0.6, noise_sigma=sigma, seed=seed), 0.2)

    def check(self, seed, modem_cfg, loss):
        link_cfg = LinkConfig(loss_probability=loss, seed=seed)
        for n in self.LENGTHS:
            trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed=seed % 100)
            assert_matches_reference(trace, link_cfg, modem_cfg)


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

    def test_one_group_places_the_announce_and_the_appliance_line(self):
        # with a latency past the trace, the drain delivers every frame: the
        # announce follows the group's first FRAME_DELIVERED line, and the
        # APPLIANCE line follows the ACTION line whose action switched it
        result = run_pipeline(
            vertical_trace(3, seed=1),
            link_cfg=LinkConfig(latency=1000),
            profile=CalibrationProfile(window_size=1, debounce_n=1),
            pir_at=0,
        )
        assert [line.split(" mode=")[0] for line in result.log[3:]] == [
            "[t=0] PIR TRIGGERED",
            "[t=0] FRAME_SENT frame=0",
            "[t=20] FRAME_SENT frame=1",
            "[t=40] FRAME_SENT frame=2",
            "[t=1000] FRAME_DELIVERED frame=0",
            "[t=1000] ACQUIRE_ANNOUNCED",
            ACQUIRING_MESSAGE,
            "[t=1020] FRAME_DELIVERED frame=1",
            "[t=1040] FRAME_DELIVERED frame=2",
            "[t=1000] ACTION ON",
            "[t=1000] APPLIANCE light -> ON",
            "[t=1020] ACTION ON",
            "[t=1040] ACTION ON",
        ]


def switching_trace(n, every, seed):
    """n samples 20 ms apart whose gesture switches between vertical and
    horizontal every `every` samples."""
    up = generate_gesture(GestureKind.VERTICAL_UP_DOWN, n, seed).samples
    side = generate_gesture(GestureKind.HORIZONTAL, n, seed + 1).samples
    return Trace(
        tuple(
            replace((up if i // every % 2 == 0 else side)[i], t=20 * i) for i in range(n)
        )
    )


class TestRenderChunksMatchPerSampleLoop:
    """The frame lines are rendered _RENDER_FRAMES frames sent at a time,
    with the deliveries of those frames. Runs of just below, at and just
    above one and two chunks match the per-sample reference. A latency past
    the trace has the drain deliver every frame, so its deliveries span
    every chunk edge, and the gesture switching every 64 samples puts
    ACTION and APPLIANCE lines among them."""

    @pytest.mark.parametrize(
        "n", [_RENDER_FRAMES - 1, _RENDER_FRAMES, _RENDER_FRAMES + 1, 2 * _RENDER_FRAMES + 7]
    )
    @pytest.mark.parametrize("latency", [0, 45, "beyond"])
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    @pytest.mark.parametrize("window, debounce", [(1, 1), (3, 2)])
    def test_chunk_edges(self, n, latency, loss, window, debounce):
        if latency == "beyond":
            latency = 20 * n + 5
        assert_matches_reference(
            switching_trace(n, 64, seed=n),
            LinkConfig(loss_probability=loss, latency=latency, seed=n),
            ModemConfig(noise_sigma=0.0),
            pir_at=0,
            profile=CalibrationProfile(window_size=window, debounce_n=debounce),
        )

    @pytest.mark.parametrize("latency", [10, "beyond"])
    def test_first_delivery_in_a_later_chunk_announces(self, latency):
        # every frame of the first chunk is lost, so delivery 0, and the
        # announcement after it, come from the second chunk's frames; the
        # link draws one random() per frame, in send order
        n, p = _RENDER_FRAMES + 60, 0.995

        def first_kept(seed):
            draws = Random(seed)
            return next((i for i in range(n) if draws.random() >= p), n)

        seed = next(seed for seed in range(10_000) if _RENDER_FRAMES <= first_kept(seed) < n)
        if latency == "beyond":
            latency = 20 * n + 5
        link_cfg = LinkConfig(loss_probability=p, latency=latency, seed=seed)
        result = run_pipeline(vertical_trace(n, seed=3), link_cfg=link_cfg)
        assert result.log.count(ACQUIRING_MESSAGE) == 1
        assert_matches_reference(vertical_trace(n, seed=3), link_cfg, ModemConfig())


class TestMetamorphicRelations:
    """Relations between two runs, compared exactly."""

    @settings(max_examples=100, deadline=None)
    @given(
        gaps=st.lists(st.integers(1, 40), min_size=1, max_size=60),
        start=st.integers(0, 100),
        latency=st.sampled_from([0, 10, 45]),
        pir_case=st.sampled_from(PIR_CASES),
        window=st.sampled_from([3, 16]),
        debounce=st.sampled_from([1, 2]),
        loss=st.sampled_from([0.0, 0.3]),
        # 1e-170 is past the attenuation at which every bit decodes as 0
        attenuation=st.sampled_from([1.0, 0.3, 1e-170]),
        link_seed=st.integers(0, 2**32),
        modem_seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2),
    )
    def test_sigma_zero_ignores_the_modem_seed(
        self, gaps, start, latency, pir_case, window, debounce, loss, attenuation,
        link_seed, modem_seeds,
    ):
        # at sigma 0 the channel draws no noise, so the modem seed changes no
        # byte of the log and no counter
        times = [start]
        for gap in gaps:
            times.append(times[-1] + gap)
        if pir_case == "between" and max(gaps) < 2:
            pir_case = "past_drain"
        rng = Random(link_seed)
        trace = gesture_trace(times, rng.randint(0, len(times)), link_seed % 1000)
        kwargs = dict(
            profile=CalibrationProfile(window_size=window, debounce_n=debounce),
            link_cfg=LinkConfig(loss_probability=loss, latency=latency, seed=link_seed),
            pir_at=pir_time(pir_case, times, latency, rng),
        )
        first, second = (
            run_pipeline(
                trace,
                modem_cfg=ModemConfig(channel_attenuation=attenuation, seed=seed),
                **kwargs,
            )
            for seed in modem_seeds
        )
        assert first == second

    # the pipelines the three relations below draw: latency, trigger kind,
    # window and sigma span the settings where the log's order could part
    PIPELINES = dict(
        gaps=st.lists(st.integers(1, 40), min_size=1, max_size=45),
        start=st.integers(0, 100),
        latency=st.sampled_from([0, 1, 10, 45]),
        pir_case=st.sampled_from(PIR_CASES),
        window=st.sampled_from([1, 3, 16]),
        debounce=st.sampled_from([1, 2]),
        sigma=st.sampled_from([0.0, 0.8]),
        seed=st.integers(0, 2**32),
    )

    @staticmethod
    def pipeline(gaps, start, latency, pir_case, window, debounce, sigma, seed):
        """A trace and the keyword arguments of one run_pipeline call on it."""
        times = [start]
        for gap in gaps:
            times.append(times[-1] + gap)
        if pir_case == "between" and max(gaps) < 2:
            pir_case = "past_drain"
        rng = Random(seed)
        trace = gesture_trace(times, rng.randint(0, len(times)), seed % 1000)
        return trace, dict(
            profile=CalibrationProfile(window_size=window, debounce_n=debounce),
            link_cfg=LinkConfig(
                loss_probability=rng.choice([0.0, 0.3]), latency=latency, seed=seed
            ),
            modem_cfg=ModemConfig(noise_sigma=sigma, seed=seed),
            pir_at=pir_time(pir_case, times, latency, rng),
        )

    @settings(max_examples=60, deadline=None)
    @given(shift=st.sampled_from([1, 7, 1000, TIME_MAX]) | st.integers(1, TIME_MAX), **PIPELINES)
    def test_time_translation_raises_every_time_by_the_shift(self, shift, **pipeline):
        # the log is ordered by step, never by time: adding c to every sample
        # time and to pir_at adds c to every [t=...] after the header, up to
        # the time bound, and changes nothing else
        trace, kwargs = self.pipeline(**pipeline)
        base = run_pipeline(trace, **kwargs)
        pir_at = kwargs["pir_at"]
        # at most the shift that puts the drain or the trigger on the bound
        latest = max(trace[-1].t + kwargs["link_cfg"].latency, pir_at or 0)
        shift = min(shift, TIME_MAX - latest)
        moved = run_pipeline(
            Trace.from_columns(trace.t + shift, trace.x, trace.y, trace.z),
            **{**kwargs, "pir_at": None if pir_at is None else pir_at + shift},
        )

        def raised(line):
            stamp = re.match(r"\[t=(\d+)\]", line)
            return line if stamp is None else f"[t={int(stamp[1]) + shift}]{line[stamp.end():]}"

        assert moved.log[:3] == base.log[:3]
        assert moved.log[3:] == [raised(line) for line in base.log[3:]]
        assert moved.actions == [(t + shift, action) for t, action in base.actions]
        assert replace(moved, log=None, actions=None) == replace(base, log=None, actions=None)

    @settings(max_examples=60, deadline=None)
    @given(**PIPELINES)
    def test_more_loss_loses_a_superset_of_frames(self, **pipeline):
        # with one link seed each frame meets the same loss draw, so a higher
        # loss_probability drops every frame a lower one drops
        trace, kwargs = self.pipeline(**pipeline)
        link_cfg = kwargs["link_cfg"]
        low, high = (
            run_pipeline(trace, **{**kwargs, "link_cfg": replace(link_cfg, loss_probability=p)})
            for p in (0.2, 0.5)
        )

        def lost(result):
            frames = map(re.compile(r".* FRAME_LOST frame=(\d+)$").match, result.log)
            return {int(frame[1]) for frame in frames if frame}

        assert lost(low) <= lost(high)
        assert len(lost(high)) == high.frames_lost
        assert high.frames_sent == low.frames_sent

    @settings(max_examples=60, deadline=None)
    @given(latencies=st.lists(st.sampled_from([0, 1, 10, 45, 10**4]), min_size=2, max_size=2),
           **PIPELINES)
    def test_latency_moves_only_time(self, latencies, **pipeline):
        # armed from the start, the controller sees the same deliveries in the
        # same order whatever the latency, so only the times of its actions move
        trace, kwargs = self.pipeline(**pipeline)
        link_cfg = kwargs["link_cfg"]
        first, second = (
            run_pipeline(
                trace, **{**kwargs, "pir_at": 0, "link_cfg": replace(link_cfg, latency=latency)}
            )
            for latency in latencies
        )
        assert first.frames_delivered == second.frames_delivered
        assert first.powered == second.powered
        assert [a for _, a in first.actions] == [a for _, a in second.actions]


class TestGateModel:
    """run_pipeline's PIR gate and debouncer against the plain models: the
    model reads only which frames the log delivers, and when, and replays
    the gate rules one delivery at a time (tests/models.py's Controller)."""

    @staticmethod
    def model(trace, delivered, profile, latency, pir_at):
        """The ACTION, PIR TRIGGERED and APPLIANCE lines in log order, the
        emitted actions, each as its ACTION line's text, and the final
        power state, for deliveries given as (due time, sample index) in
        delivery order."""
        fires = pir_at is not None and pir_at <= trace.t[-1] + latency
        # the same-tick rule: a delivery due by pir_at of a frame sent before
        # it is consumed before the trigger
        before = sum(due <= pir_at and trace.t[i] < pir_at for due, i in delivered) if fires else 0
        lines = []
        ctrl = models.Controller(profile, lines)
        for d, (due, i) in enumerate(delivered):
            if fires and not ctrl.armed and d == before:
                ctrl.trigger(pir_at)
            ctrl.deliver(due, int(trace.y[i]), int(trace.z[i]))
        if fires and not ctrl.armed:  # the trigger follows every verdict
            ctrl.trigger(pir_at)
        return lines, ctrl.actions, ctrl.powered

    @settings(max_examples=150, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(st.sampled_from(list(GestureKind)), st.integers(1, 12)),
            min_size=1,
            max_size=5,
        ),
        gap=st.sampled_from([1, 20]),
        latency=st.sampled_from([0, 1, 20, 45, 10**4]),
        loss=st.sampled_from([0.0, 0.3]),
        pir_case=st.sampled_from(PIR_CASES),
        window=st.sampled_from([1, 2, 3, 8]),
        debounce=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, 2**32),
    )
    def test_gate_matches_the_model(
        self, segments, gap, latency, loss, pir_case, window, debounce, seed
    ):
        samples = [
            s
            for k, (kind, n) in enumerate(segments)
            for s in generate_gesture(kind, n, seed=seed % 1000 + k).samples
        ]
        times = [k * gap for k in range(len(samples))]
        if pir_case == "between" and (gap < 2 or len(times) < 2):
            pir_case = "delivery"
        trace = Trace.from_columns(
            times, [s.x for s in samples], [s.y for s in samples], [s.z for s in samples]
        )
        profile = CalibrationProfile(window_size=window, debounce_n=debounce)
        pir_at = pir_time(pir_case, times, latency, Random(seed))
        result = run_pipeline(
            trace,
            profile=profile,
            link_cfg=LinkConfig(loss_probability=loss, latency=latency, seed=seed),
            pir_at=pir_at,
        )
        # at sigma 0 every frame is sent, so frame k carries sample k
        delivered = [
            (int(m[1]), int(m[2]))
            for m in map(re.compile(r"\[t=(\d+)\] FRAME_DELIVERED frame=(\d+) ").match, result.log)
            if m
        ]
        assert [due for due, _ in delivered] == [times[i] + latency for _, i in delivered]
        lines, actions, powered = self.model(trace, delivered, profile, latency, pir_at)
        gated = re.compile(r"\[t=\d+\] (ACTION|PIR|APPLIANCE) ")
        assert [line for line in result.log if gated.match(line)] == lines
        assert [(t, action.value) for t, action in result.actions] == actions
        assert result.powered is powered


class TestIntegerEdges:
    """Times run up to the bound TIME_MAX = 2**53 - 1 and band ends are ints
    of any size: no time or sum wraps or rounds on the way."""

    # the latency that puts the last delivery exactly on the bound
    LATENCY = TIME_MAX - 2**52
    TRACE = Trace(
        (AccelSample(t=2**52 - 20, x=1, y=2, z=3), AccelSample(t=2**52, x=4, y=5, z=6))
    )
    ONE = CalibrationProfile(window_size=1, debounce_n=1)

    def test_delivery_at_the_time_bound(self):
        link_cfg = LinkConfig(latency=self.LATENCY)
        result = run_pipeline(self.TRACE, link_cfg=link_cfg, profile=self.ONE)
        assert result.log[3:] == [
            "[t=0] PIR TRIGGERED",
            "[t=4503599627370476] FRAME_SENT frame=0 mode=ACC x=1 y=2 z=3",
            "[t=4503599627370496] FRAME_SENT frame=1 mode=ACC x=4 y=5 z=6",
            "[t=9007199254740971] FRAME_DELIVERED frame=0 mode=ACC x=1 y=2 z=3",
            "[t=9007199254740971] ACQUIRE_ANNOUNCED",
            "Acquiring data from accelerometer sensor",
            "[t=9007199254740991] FRAME_DELIVERED frame=1 mode=ACC x=4 y=5 z=6",
            "[t=9007199254740971] ACTION DO_NOTHING",
            "[t=9007199254740991] ACTION DO_NOTHING",
        ]

    def test_trigger_between_deliveries_at_the_time_bound(self):
        result = run_pipeline(
            self.TRACE,
            link_cfg=LinkConfig(latency=self.LATENCY),
            profile=self.ONE,
            pir_at=TIME_MAX - 10,
        )
        assert result.log[3:] == [
            "[t=4503599627370476] FRAME_SENT frame=0 mode=ACC x=1 y=2 z=3",
            "[t=4503599627370496] FRAME_SENT frame=1 mode=ACC x=4 y=5 z=6",
            "[t=9007199254740971] FRAME_DELIVERED frame=0 mode=ACC x=1 y=2 z=3",
            "[t=9007199254740971] ACQUIRE_ANNOUNCED",
            "Acquiring data from accelerometer sensor",
            "[t=9007199254740971] ACTION DO_NOTHING",
            "[t=9007199254740981] PIR TRIGGERED",
            "[t=9007199254740991] FRAME_DELIVERED frame=1 mode=ACC x=4 y=5 z=6",
            "[t=9007199254740991] ACTION DO_NOTHING",
        ]

    def test_drain_past_the_time_bound_refused_naming_the_latency(self):
        message = (
            "latency must keep the drain time, the last sample time 4503599627370496 + latency,"
            f" <= {TIME_MAX}, got {self.LATENCY + 1}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_pipeline(self.TRACE, link_cfg=LinkConfig(latency=self.LATENCY + 1))

    @pytest.mark.parametrize("n", [2**63 - 1, 2**63, 2**64])
    def test_debounce_n_past_int64(self, n):
        # no run reaches n, so nothing is emitted, and the int64 run columns
        # never meet n itself
        profile = CalibrationProfile(window_size=1, debounce_n=n)
        result = run_pipeline(vertical_trace(6, seed=1), profile=profile)
        assert result.actions == [] and result.powered is False
        assert [line.split()[-1] for line in result.log if " ACTION " in line] == ["ON"] * 6
        assert not any(" APPLIANCE " in line for line in result.log)
        assert debounced_stream([Action.ON] * 3, n) == []

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
