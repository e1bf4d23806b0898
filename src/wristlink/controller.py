"""PIR-gated home-automation controller and the end-to-end pipeline.

The controller arms when a presence sensor fires and from then on honors
debounced classifier actions against one appliance. `run_pipeline` wires
the whole chain over virtual time: access-point start, ACC-mode streaming of
each trace sample through the frame codec and FSK channel, Bernoulli-loss
delivery, a sliding window over delivered samples, classification, debounce,
and gated appliance switching. Nothing downstream feeds back into the
stages before it, so each runs over the whole trace in turn: the radio path
in blocks of PHY_BLOCK_FRAMES frames, each sample encoded on its own; the
link as one block of sends and time steps (LinkSimulator.stream); the
classifier over every window of the delivered sequence at once; then one
pass in log order that debounces the verdicts, applies the gate and renders
the log. Everything is seeded, so identical inputs produce byte-identical
logs.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .classify import Action, CalibrationProfile, Debouncer, classify_windows
# not called here, but perfbench's tracer patches the pipeline's classifier
# under this name
from .classify import classify_window  # noqa: F401
from .framing import CodecFrame, WatchMode, deserialize, serialize
from .link import EventKind, LinkConfig, LinkSimulator, event_lines, frame_details, log_lines
from .modem import ModemConfig, channel_apply, demodulate, modulate
from .sensor import Trace, check_int

# Frames per radio-path block. Outputs do not depend on it, but above sigma 0
# peak memory grows with it (a frame is 768 float64 waveform samples, held in
# a few copies), so it stays small. At sigma 0 no waveform is built.
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
    the full log (in the order README's "Event log" gives), and per-stage
    counters."""

    powered: bool
    log: list[str]
    frames_sent: int
    frames_delivered: int
    frames_lost: int
    frames_corrupted: int
    windows_classified: int
    actions: list[tuple[int, Action]]


def _receive(samples, modem_cfg: ModemConfig) -> tuple[list[bool], np.ndarray]:
    """Radio path, in blocks of PHY_BLOCK_FRAMES samples: each sample is
    serialized as an ACC frame, and the block's bits are sent through the
    channel and decoded, re-verifying sync and CRC per frame. Above sigma 0
    the block goes as FSK waveforms (frame i of the trace with noise seed
    modem_cfg.seed + i). At sigma 0 no waveform is built: demodulate decides
    each bit window alone, and every bit of one value then receives the same
    samples, so one run of the two one-bit rows through the channel gives
    the decision for each value. Returns, per sample, whether its frame
    passed both checks, and the (n, 4) frame block decoded from its bits."""
    acc = WatchMode.ACC
    wire = b"".join(bytes(serialize(CodecFrame(acc, s.x, s.y, s.z))) for s in samples)
    tx = np.frombuffer(wire, np.uint8).reshape(len(samples), -1)
    decide = None
    if modem_cfg.noise_sigma == 0:
        decide = demodulate(channel_apply(modulate([[0], [1]]), modem_cfg))[:, 0]
    ok, fields = [], []
    for start in range(0, len(tx), PHY_BLOCK_FRAMES):
        tx_bits = tx[start : start + PHY_BLOCK_FRAMES]
        if decide is not None:
            rx_bits = decide[tx_bits]
        else:
            # frame i of the trace gets noise stream seed + i, whatever the block
            block_cfg = replace(modem_cfg, seed=(modem_cfg.seed + start) % 2**64)
            rx_bits = demodulate(channel_apply(modulate(tx_bits), block_cfg))
        block_ok, block_fields = deserialize(rx_bits)
        ok += block_ok.tolist()
        fields.append(block_fields)
    return ok, np.concatenate(fields)


def run_pipeline(
    trace: Trace,
    profile: CalibrationProfile | None = None,
    link_cfg: LinkConfig | None = None,
    modem_cfg: ModemConfig | None = None,
    pir_at: int | None = 0,
) -> PipelineResult:
    """Drive a trace through the complete sensing-to-appliance chain.

    Each sample's frame goes through the radio path (see _receive). At each
    sample's time the link first delivers the frames due by then; then the
    sample's decoded frame, when the integrity check passed, goes over the
    lossy link, or a FRAME_CORRUPTED line is logged. A frame is never
    delivered before its own send, so one due at its send time (latency 0)
    is logged with the next sample's deliveries. After the last sample the
    link is drained at its time + latency. A sliding window advances over
    delivered samples only, so losses shrink window fill instead of stalling
    progress: once window_size samples have arrived, every further delivery
    completes a window and yields a verdict for the debounce stage. `pir_at`
    is the presence-trigger time in int ms; None, or a time past the drain,
    means the sensor never fires. Deliveries due at exactly `pir_at` are
    consumed before the trigger, and the trigger starts a fresh debouncer:
    the run it had, and the action it last emitted while unarmed, are
    discarded.
    Protocol violations propagate; nothing is silently dropped.
    """
    if pir_at is not None:
        check_int("pir_at", pir_at, 0)
    if len(trace) == 0:
        raise ValueError("trace is empty")
    profile = profile if profile is not None else CalibrationProfile()
    link_cfg = link_cfg if link_cfg is not None else LinkConfig()
    modem_cfg = modem_cfg if modem_cfg is not None else ModemConfig()

    log: list[str] = []
    sim = LinkSimulator(link_cfg, log=log)
    ctrl = HomeController(log=log)
    sim.ap_start()
    sim.watch_set_mode(WatchMode.ACC)

    samples = trace.samples
    ok, fields = _receive(samples, modem_cfg)
    times = [s.t for s in samples]
    sent = [i for i, frame_ok in enumerate(ok) if frame_ok]  # sample of each frame sent

    # Link steps: one per sample, at its time, with its frame sent right
    # after it, and a last one that drains the link. The trigger is a step
    # of its own, just before the first sample at or after pir_at, so it
    # follows the deliveries due by then; the samples' steps from there on
    # move up by one.
    steps = times + [times[-1] + link_cfg.latency]
    pir_step = None
    sent_after = sent
    if pir_at is not None and pir_at <= steps[-1]:
        pir_step = bisect_left(times, pir_at)
        steps.insert(pir_step, pir_at)
        sent_after = [i + 1 if i >= pir_step else i for i in sent]
    link = sim.stream(steps, sent_after, range(len(sent)))  # payload: index in sent
    arrival, due, lost = link.step, link.t, link.lost

    # decoded (x, y, z) of each frame sent, and of each delivered, in order
    sent_xyz = fields[sent, 1:]
    got = sent_xyz[link.frame]
    w = profile.window_size
    # verdict v is that of the window ending at delivery v + w - 1
    verdicts = classify_windows(got[:, 2], got[:, 1], profile)
    # the trigger replaces the debouncer after the verdicts of the
    # deliveries at or before its step
    n_unarmed = len(verdicts)
    if pir_step is not None:
        n_unarmed = max(0, bisect_right(arrival, pir_step) - w + 1)
    emitted: list[Action | None] = []
    for part in (verdicts[:n_unarmed], verdicts[n_unarmed:]):
        gate = Debouncer(profile.debounce_n)
        emitted += [gate.push(verdict) for verdict in part]

    # every line of the log but the controller's, rendered by column
    sent_t = [times[i] for i in sent]
    details = frame_details(range(link.first_id, link.first_id + len(sent)), sent_xyz.tolist())
    sent_lines = log_lines(EventKind.FRAME_SENT, sent_t, details)
    dropped = [k for k, frame_lost in enumerate(lost) if frame_lost]
    lost_lines = iter(
        log_lines(
            EventKind.FRAME_LOST,
            [sent_t[k] for k in dropped],
            frame_details([link.first_id + k for k in dropped]),
        )
    )
    delivered_lines = log_lines(EventKind.FRAME_DELIVERED, due, [details[k] for k in link.frame])
    action_lines = [f"[t={t}] ACTION {v.value}" for t, v in zip(due[w - 1 :], verdicts)]

    # one pass in log order: at each step, its deliveries, then their
    # verdicts and actions, then the trigger or the sample's own line
    actions: list[tuple[int, Action]] = []
    d = k = sample = 0  # next delivery, frame sent and sample
    for step in range(len(steps)):
        if d < len(due) and arrival[d] == step:
            first, d = d, bisect_right(arrival, step, d)
            if first == 0 and link.announced:
                log.append(delivered_lines[0])
                log += event_lines(due[0], EventKind.ACQUIRE_ANNOUNCED)
                log += delivered_lines[1:d]
            else:
                log += delivered_lines[first:d]
            for v in range(max(first - w + 1, 0), d - w + 1):
                log.append(action_lines[v])
                action = emitted[v]
                if action is not None:
                    t = due[v + w - 1]
                    actions.append((t, action))
                    ctrl.apply_action(action, t)
        if step == pir_step:
            ctrl.pir_trigger(pir_at)
        elif sample < len(samples):  # else the drain step
            if ok[sample]:
                log.append(sent_lines[k])
                if lost[k]:
                    log.append(next(lost_lines))
                k += 1
            else:
                log.append(f"[t={times[sample]}] FRAME_CORRUPTED codec integrity check failed")
            sample += 1

    return PipelineResult(
        powered=ctrl.powered,
        log=log,
        frames_sent=sim.sent_count,
        frames_delivered=sim.delivered_count,
        frames_lost=sim.lost_count,
        frames_corrupted=len(samples) - len(sent),
        windows_classified=len(verdicts),
        actions=actions,
    )
