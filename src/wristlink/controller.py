"""PIR-gated home-automation controller and the end-to-end pipeline.

The controller arms when a presence sensor fires and from then on honors
debounced classifier actions against one appliance. `run_pipeline` wires the
whole chain over virtual time: access-point start, ACC-mode streaming of
each trace sample through the frame codec and FSK channel, Bernoulli-loss
delivery, a sliding window over delivered samples, classification, debounce,
and gated appliance switching. Nothing downstream feeds back into the stages
before it, so each runs over the whole trace in turn, reading the Trace's
read-only int64 t, x, y and z columns and never its AccelSample rows: the
radio path, each sample encoded on its own from an unchecked CodecFrame view
of its row of the columns' plain ints, the frames' bytes joined into one
wire buffer, sent by modem.send_gated above sigma 0, where the rest of a
frame is sent only if its preamble survived, and decoded as one block, so
the decoded fields of frames rejected at the preamble are not computed;
the link as one block of sends and time steps (LinkSimulator._stream),
the trace's times with the trigger and the drain put in, on int64 columns
of due times and frame ids, every time bounded by TIME_MAX, each delivery
read from the frames sent by its id; the classifier's verdict code for
every window of the delivered sequence at once; then the debouncer as one
run-length pass over the codes, split at the trigger, and the controller's
APPLIANCE lines from the armed emissions that switch the appliance.
HomeController is the controller's streaming form, one
action at a time. The log is rendered by column and put in order by one
stable sort of a (step, phase) key. A clean run keeps no per-sample
container object alive, so it never wakes the cyclic garbage collector.
Everything is seeded, so identical inputs produce byte-identical logs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import _ACTIONS, _ON, Action, CalibrationProfile, _emissions, _verdict_codes
# not called here, but perfbench's tracer patches the pipeline's classifier
# under this name
from .classify import classify_window  # noqa: F401
from .framing import SYNC_BITS, WatchMode, _acc_frame_view, deserialize, serialize
from .link import LinkConfig, LinkSimulator, delivery_lines, frame_details, send_lines
from .modem import ModemConfig, channel_apply, demodulate, modulate, send_gated
from .sensor import TIME_MAX, Trace, check_int, check_type

# the one appliance the controller switches, as the log names it
APPLIANCE = "light"


def _trigger_line(t: int) -> str:
    return f"[t={t}] PIR TRIGGERED"


def _appliance_line(t: int, state: str) -> str:
    return f"[t={t}] APPLIANCE {APPLIANCE} -> {state}"


class HomeController:
    """Appliance state machine gated on passive-infrared presence detection.

    Arming is sticky: once triggered, the controller stays armed. This is
    the streaming form, one action at a time; run_pipeline decides a whole
    run's APPLIANCE lines at once from the debounced actions, by the same
    rules.
    """

    def __init__(self):
        self.armed = False
        self.powered = False
        self.log: list[str] = []

    def pir_trigger(self, t: int) -> None:
        """Arm the controller at t (int ms in 0..TIME_MAX); re-triggering
        keeps it armed."""
        check_int("t", t, 0, TIME_MAX)
        self.armed = True
        self.log.append(_trigger_line(t))

    def apply_action(self, action: Action, t: int) -> None:
        """Honor a debounced action at t (int ms in 0..TIME_MAX) while armed;
        log real transitions only."""
        check_type("action", action, Action)
        check_int("t", t, 0, TIME_MAX)
        if not self.armed:
            return
        if action is Action.ON and not self.powered:
            self.powered = True
            self.log.append(_appliance_line(t, "ON"))
        elif action is Action.OFF and self.powered:
            self.powered = False
            self.log.append(_appliance_line(t, "OFF"))


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


def _receive(trace: Trace, modem_cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Radio path: each sample is serialized as an ACC frame, a view of its
    row of the plain ints of the trace's x, y and z columns, which the
    Trace already checked (framing._acc_frame_view), and the frames' bytes
    are joined as they come into one (n, 48) wire block; the bits are sent
    through the channel and decoded, re-verifying sync and CRC per frame.
    Returns, per sample, whether its frame passed both checks, and the
    (n, 4) frame block decoded from its bits; the rows of frames rejected
    at the preamble are not decoded, and read 0.

    Above sigma 0 modem.send_gated sends the frames as FSK waveforms, frame
    i of the trace drawing its noise from the stream seeded with
    modem_cfg.seed + i, with SYNC_BITS as its gate: the rest of a frame goes
    only if its preamble decoded as sent. Every frame is sent with the sync
    byte, and deserialize rejects any other, so a frame whose preamble did
    not survive fails whatever its other bits are.

    At sigma 0 no waveform is built: every bit of one value then receives
    the same samples, so one run of the two one-bit rows through the
    channel gives the decision for each value.

    Either way the received frames are decoded in one deserialize call."""
    frames = map(_acc_frame_view, trace.x.tolist(), trace.y.tolist(), trace.z.tolist())
    wire = b"".join(map(serialize, frames))
    tx = np.frombuffer(wire, np.uint8).reshape(len(trace), -1)
    if modem_cfg.noise_sigma == 0:
        decide = demodulate(channel_apply(modulate([[0], [1]]), modem_cfg))[:, 0]
        rows, rx = slice(None), decide[tx]
    else:
        rows, rx = send_gated(tx, modem_cfg, SYNC_BITS)
    ok = np.zeros(len(tx), dtype=bool)
    fields = np.zeros((len(tx), 4), dtype=np.int64)
    ok[rows], fields[rows] = deserialize(rx)
    return ok, fields


def _given_or_default(name: str, value, cls):
    """value, or cls() for None, after sensor.check_type."""
    return cls() if value is None else check_type(name, value, cls)


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
    is the presence-trigger time, an int in 0..TIME_MAX ms; None, or a time
    past the drain, means the sensor never fires. The drain time, the last
    sample time + latency, must not pass TIME_MAX either, or a ValueError
    names the latency. Deliveries due at exactly `pir_at` are consumed
    before the trigger, and the trigger starts a fresh debouncer: the run it
    had, and the action it last emitted while unarmed, are discarded.
    Protocol violations propagate; nothing is silently dropped.
    """
    if pir_at is not None:
        check_int("pir_at", pir_at, 0, TIME_MAX)
    check_type("trace", trace, Trace)
    if len(trace) == 0:
        raise ValueError("trace is empty")
    profile = _given_or_default("profile", profile, CalibrationProfile)
    link_cfg = _given_or_default("link_cfg", link_cfg, LinkConfig)
    modem_cfg = _given_or_default("modem_cfg", modem_cfg, ModemConfig)

    times = trace.t
    last = int(times[-1])
    if link_cfg.latency > TIME_MAX - last:
        raise ValueError(
            f"latency must keep the drain time, the last sample time {last} + latency,"
            f" <= {TIME_MAX}, got {link_cfg.latency}"
        )
    sim = LinkSimulator(link_cfg)
    sim.ap_start()
    sim.watch_set_mode(WatchMode.ACC)

    ok, fields = _receive(trace, modem_cfg)
    sent = np.flatnonzero(ok)  # sample of each frame sent

    # Link steps: one per sample, at its time, with its frame sent right
    # after it, and a last one that drains the link. The trigger is a step
    # of its own, just before the first sample at or after pir_at, so it
    # follows the deliveries due by then; the samples' steps from there on
    # move up by one. The link checks none of this: the times come from the
    # Trace, which checked that they rise from 0, and pir_at and the drain
    # time were checked above, so every step fits an int64.
    steps = np.append(times, last + link_cfg.latency)
    sample_step = np.arange(len(times))
    pir_step = None
    if pir_at is not None and pir_at <= steps[-1]:
        pir_step = int(np.searchsorted(times, pir_at))
        steps = np.insert(steps, pir_step, pir_at)
        sample_step[pir_step:] += 1
    sent_step = sample_step[sent]
    first_id, lost, arrival, due, ids, announced = sim._stream(steps, sent_step)
    due = due.tolist()

    # decoded (x, y, z) of each frame sent, and of each delivered, in order;
    # frame first_id + k is the k-th frame sent
    sent_xyz = fields[sent, 1:]
    got_index = ids - first_id
    got = sent_xyz[got_index]
    w = profile.window_size
    # verdict v is that of the window ending at delivery v + w - 1
    codes = _verdict_codes(got[:, 2], got[:, 1], profile)
    # the trigger arms the controller, and replaces the debouncer, after the
    # verdicts of the deliveries at or before its step
    n_unarmed = len(codes)
    if pir_step is not None:
        n_unarmed = max(0, int(np.searchsorted(arrival, pir_step, "right")) - w + 1)
    emitted_at, emitted = _emissions(codes, profile.debounce_n, n_unarmed)
    actions = [
        (due[v + w - 1], _ACTIONS[code]) for v, code in zip(emitted_at.tolist(), emitted.tolist())
    ]
    # The controller, off at the trigger, is on after each armed emission of
    # ON and off after each of OFF; it logs an APPLIANCE line, at the
    # verdict behind it, for each armed emission that switches it.
    armed = int(np.searchsorted(emitted_at, n_unarmed))
    on = emitted[armed:] == _ON
    switched = on != np.concatenate(([False], on[:-1]))
    caused = emitted_at[armed:][switched]  # per APPLIANCE line, its verdict
    texts = [action.value for action in _ACTIONS]
    appliance = [
        _appliance_line(due[v + w - 1], texts[code])
        for v, code in zip(caused.tolist(), emitted[armed:][switched].tolist())
    ]
    powered = bool(len(on) and on[-1])
    trigger = [_trigger_line(pir_at)] if pir_step is not None else []

    # The log after its header, as one table. The line of an event at step
    # s has the key 3 * s + phase: phase 0 for the step's deliveries, 1 for
    # the ACTION lines of the windows they complete, each followed by the
    # APPLIANCE line its action causes, and 2 for the trigger or the
    # sample's own lines. One stable sort by key puts the table in log
    # order, lines of one key keeping their order here.
    details = frame_details(range(first_id, first_id + len(sent)), *sent_xyz.T.tolist())
    delivered_rows, delivered = delivery_lines(
        due, announced, [details[k] for k in got_index.tolist()]
    )
    sent_rows, sent_lines = send_lines(first_id, lost, times[sent].tolist(), details)
    action_lines = [
        f"[t={t}] ACTION {texts[code]}" for t, code in zip(due[w - 1 :], codes.tolist())
    ]
    after = caused + 1  # each APPLIANCE line's place
    acted_rows = np.insert(np.arange(len(codes)), after, caused)  # the verdict of each line
    acted = np.insert(np.array(action_lines, dtype=object), after, appliance)
    corrupt = np.flatnonzero(~ok)
    corrupted = [
        f"[t={t}] FRAME_CORRUPTED codec integrity check failed" for t in times[corrupt].tolist()
    ]
    keys, lines = zip(
        (3 * arrival[delivered_rows], delivered),
        (3 * arrival[acted_rows + w - 1] + 1, acted),
        (3 * sent_step[sent_rows] + 2, sent_lines),
        (3 * sample_step[corrupt] + 2, corrupted),
        (np.full(len(trigger), 3 * (pir_step or 0) + 2), trigger),
    )
    table = np.concatenate([np.array(column, dtype=object) for column in lines])
    log = sim.log + table[np.argsort(np.concatenate(keys), kind="stable")].tolist()

    return PipelineResult(
        powered=powered,
        log=log,
        frames_sent=sim.sent_count,
        frames_delivered=sim.delivered_count,
        frames_lost=sim.lost_count,
        frames_corrupted=len(times) - len(sent),
        windows_classified=len(codes),
        actions=actions,
    )
