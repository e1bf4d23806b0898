"""PIR-gated home-automation controller and the end-to-end pipeline.

The controller arms when a presence sensor fires and from then on honors
debounced classifier actions against one appliance. `run_pipeline` wires
the whole chain over virtual time: access-point start, ACC-mode streaming of
each trace sample through the frame codec and FSK channel, Bernoulli-loss
delivery, a sliding window over delivered samples, classification, debounce,
and gated appliance switching. The radio path gets no feedback from the
link, so it runs ahead of the per-sample event loop: each sample is
encoded on its own, and the modem and decoder take blocks of
PHY_BLOCK_FRAMES frames. Everything is seeded, so identical inputs produce
byte-identical logs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import Action, CalibrationProfile, Debouncer, classify_window
from .framing import CodecFrame, WatchMode, deserialize, serialize
from .link import EventKind, LinkConfig, LinkEvent, LinkSimulator
from .modem import ModemConfig, channel_apply, demodulate, modulate
from .sensor import Trace, check_int

# Frames per radio-path block. Outputs do not depend on it, but peak memory
# grows with it (a frame is 768 float64 waveform samples, held in a few
# copies), so it stays small.
PHY_BLOCK_FRAMES = 64

# the one appliance the controller switches, as the log names it
APPLIANCE = "light"


class HomeController:
    """Appliance state machine gated on passive-infrared presence detection.

    Arming is sticky: once triggered, the controller stays armed.
    """

    def __init__(self, log: list[str] | None = None):
        self.armed = False
        self.powered = False
        self.log = log if log is not None else []

    def pir_trigger(self, t: int) -> None:
        """Arm the controller; re-triggering keeps it armed."""
        check_int("t", t, 0)
        self.armed = True
        self.log.append(f"[t={t}] PIR TRIGGERED")

    def apply_action(self, action: Action, t: int) -> None:
        """Honor a debounced action while armed; log real transitions only."""
        check_int("t", t, 0)
        if not self.armed:
            return
        if action is Action.ON and not self.powered:
            self.powered = True
            self.log.append(f"[t={t}] APPLIANCE {APPLIANCE} -> ON")
        elif action is Action.OFF and self.powered:
            self.powered = False
            self.log.append(f"[t={t}] APPLIANCE {APPLIANCE} -> OFF")


@dataclass
class PipelineResult:
    """Outcome of one end-to-end run: whether the appliance ends powered,
    the full chronological log, and per-stage counters."""

    powered: bool
    log: list[str]
    frames_sent: int
    frames_delivered: int
    frames_lost: int
    frames_corrupted: int
    windows_classified: int
    actions: list[tuple[int, Action]]
    events: list[LinkEvent] = field(repr=False, default_factory=list)


def run_pipeline(
    trace: Trace,
    profile: CalibrationProfile | None = None,
    link_cfg: LinkConfig | None = None,
    modem_cfg: ModemConfig | None = None,
    pir_at: int | None = 0,
) -> PipelineResult:
    """Drive a trace through the complete sensing-to-appliance chain.

    Radio path, in blocks of PHY_BLOCK_FRAMES samples: each sample is
    serialized as an ACC frame, and the block is sent as FSK waveforms
    through the channel (frame i of the trace with noise seed
    modem_cfg.seed + i) and decoded, re-verifying sync and CRC per frame.
    Then, per sample of the block in order: virtual time advances to the
    sample, and its decoded frame (when the integrity check passed) goes
    over the lossy link, or a FRAME_CORRUPTED line is logged. A sliding
    window advances over delivered samples only, so losses shrink window
    fill instead of stalling progress: once window_size samples have
    arrived, every further delivery completes a window and yields a verdict
    for the debounce stage. `pir_at` is the presence-trigger time in int ms;
    None, or a time past the end of the run, means the sensor never fires.
    Protocol violations propagate; nothing is silently dropped.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if pir_at is not None:
        check_int("pir_at", pir_at, 0)
    profile = profile if profile is not None else CalibrationProfile()
    link_cfg = link_cfg if link_cfg is not None else LinkConfig()
    modem_cfg = modem_cfg if modem_cfg is not None else ModemConfig()

    log: list[str] = []
    sim = LinkSimulator(link_cfg, log=log)
    ctrl = HomeController(log=log)
    gate = Debouncer(profile.debounce_n)

    frames_corrupted = 0
    windows_classified = 0
    actions: list[tuple[int, Action]] = []
    window: deque[CodecFrame] = deque(maxlen=profile.window_size)
    pir_pending = pir_at is not None

    def consume(events: list[LinkEvent]) -> None:
        nonlocal windows_classified
        for ev in events:
            if ev.kind is not EventKind.FRAME_DELIVERED:
                continue
            window.append(ev.frame)
            if len(window) < profile.window_size:
                continue
            verdict = classify_window(window, profile)
            windows_classified += 1
            log.append(f"[t={ev.t}] ACTION {verdict.value}")
            emitted = gate.push(verdict)
            if emitted is not None:
                actions.append((ev.t, emitted))
                ctrl.apply_action(emitted, ev.t)

    def advance(t: int) -> None:
        nonlocal pir_pending
        if pir_pending and pir_at <= t:
            consume(sim.run_until(max(pir_at, sim.now)))
            ctrl.pir_trigger(pir_at)
            pir_pending = False
        consume(sim.run_until(t))

    sim.ap_start()
    sim.watch_set_mode(WatchMode.ACC)

    samples = trace.samples
    for start in range(0, len(samples), PHY_BLOCK_FRAMES):
        block = samples[start : start + PHY_BLOCK_FRAMES]
        tx_bits = np.array(
            [serialize(CodecFrame(WatchMode.ACC, s.x, s.y, s.z)) for s in block],
            dtype=np.uint8,
        )
        # frame i of the trace gets noise stream seed + i, whatever the block
        block_cfg = replace(modem_cfg, seed=(modem_cfg.seed + start) % 2**64)
        rx_bits = demodulate(channel_apply(modulate(tx_bits), block_cfg))
        ok, received = deserialize(rx_bits)
        for sample, frame_ok, (_, x, y, z) in zip(block, ok.tolist(), received.tolist()):
            advance(sample.t)
            if not frame_ok:
                frames_corrupted += 1
                log.append(f"[t={sample.t}] FRAME_CORRUPTED codec integrity check failed")
                continue
            sim.transmit_sample(CodecFrame(WatchMode.ACC, x, y, z))

    advance(samples[-1].t + link_cfg.latency)

    return PipelineResult(
        powered=ctrl.powered,
        log=log,
        frames_sent=sim.sent_count,
        frames_delivered=sim.delivered_count,
        frames_lost=sim.lost_count,
        frames_corrupted=frames_corrupted,
        windows_classified=windows_classified,
        actions=actions,
        events=sim.events,
    )
