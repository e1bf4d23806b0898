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
of its row of the columns' plain ints, the frames' bytes written into one
wire buffer as they come, sent by modem._send_gated above sigma 0, where the
rest of a frame is sent only if its preamble survived, and decoded as one
block, so the decoded fields of frames rejected at the preamble are not
computed; the link as one block of sends and time steps
(LinkSimulator._stream), the trace's times with the trigger and the drain
put in, on int64 columns of due times and frame ids, every time bounded by
TIME_MAX, each delivery read from the frames sent by its id; the
classifier's verdict code for every window of the delivered sequence at
once; then the debouncer as one run-length pass over the codes, split at
the trigger; then the controller stage, one HomeController, armed by the
trigger and given each armed emission in turn, which writes the PIR
TRIGGERED and APPLIANCE lines and holds the final power state. A stage
takes one call per item where its traffic is per event (the AP start, the
mode set, the trigger, the switches) and is a column pass where it is per
sample or per window: a seed-0 benchmark run hands the controller 34
emissions of 10,185 window verdicts on the clean stream, and 1 of 261 on
the noisy one. The log is rendered by column, each kind of line once, and
put in order through one object table by one stable sort of a (step,
phase) key. run_pipeline checks its arguments once; the private cores it
drives (modem._send_gated, LinkSimulator._stream, classify._verdict_codes
and _emissions) check nothing. A clean run keeps no per-sample container
object alive, so it never wakes the cyclic garbage collector. Everything
is seeded, so identical inputs produce byte-identical logs.

Memory contract: on top of its log (the list and its strings), a run holds
the trace's columns and a few per-sample columns, each dropped once the
lines that read it exist. The frame lines are rendered _RENDER_FRAMES
frames at a time, so the details that a frame's FRAME_SENT and
FRAME_DELIVERED lines share, and the Python ints they are rendered from,
live for one chunk; the table is put in log order and listed with three
or four columns of 8 bytes a line (keys, sort order, line pointers) alive
besides the log. A noiseless run of `wristlink simulate` peaks, as
tracemalloc counts, at about 1.45 times its log at 4,000 samples and 1.4
times at 102,000; tests/test_cli.py and the CI workflow hold it to 1.7
times at those sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from io import BytesIO

import numpy as np

from .classify import _ACTIONS, Action, CalibrationProfile, _emissions, _verdict_codes
# not called here, but perfbench's tracer patches the pipeline's classifier
# under this name
from .classify import classify_window  # noqa: F401
from .framing import SYNC_BITS, WatchMode, _acc_frame_view, deserialize, serialize
from .link import LinkConfig, LinkSimulator, delivery_lines, frame_details, send_lines
from .modem import ModemConfig, _send_gated, channel_apply, demodulate, modulate
from .sensor import TIME_MAX, Trace, check_int, check_type

# the one appliance the controller switches, as the log names it
APPLIANCE = "light"
# frames sent per chunk of run_pipeline's frame-line render
_RENDER_FRAMES = 256


class HomeController:
    """Appliance state machine gated on passive-infrared presence detection.

    Arming is sticky: once triggered, the controller stays armed. It is
    run_pipeline's controller stage, one debounced action at a time, and
    the one place that writes PIR TRIGGERED and APPLIANCE lines and decides
    the power state. Its calls are public, so they check what run_pipeline
    checked too (~1 us per emission; perfbench times apply_action).
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
        self.log.append(f"[t={t}] PIR TRIGGERED")

    def apply_action(self, action: Action, t: int) -> None:
        """Honor a debounced action at t (int ms in 0..TIME_MAX) while armed;
        log real transitions only."""
        check_type("action", action, Action)
        check_int("t", t, 0, TIME_MAX)
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


def _receive(trace: Trace, modem_cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Radio path: each sample is serialized as an ACC frame, a view of its
    row of the plain ints of the trace's x, y and z columns, which the
    Trace already checked (framing._acc_frame_view), and the frames' bytes
    are written as they come into one buffer, read as the (n, 48) wire
    block: no list of them is built, and the columns' int lists die once
    encoded. The bits are sent through the channel and decoded,
    re-verifying sync and CRC per frame.
    Returns, per sample, whether its frame passed both checks, and the
    (n, 4) frame block decoded from its bits; the rows of frames rejected
    at the preamble are not decoded, and read 0.

    Above sigma 0 modem._send_gated sends the frames as FSK waveforms, frame
    i of the trace drawing its noise from the stream seeded with
    modem_cfg.seed + i, with SYNC_BITS as its gate: the rest of a frame goes
    only if its preamble decoded as sent. Every frame is sent with the sync
    byte, and deserialize rejects any other, so a frame whose preamble did
    not survive fails whatever its other bits are.

    At sigma 0 no waveform is built: every bit of one value then receives
    the same samples, so one run of the two one-bit rows through the
    channel gives the decision for each value.

    Either way the received frames are decoded in one deserialize call."""
    wire = BytesIO()
    wire.writelines(
        map(serialize, map(_acc_frame_view, trace.x.tolist(), trace.y.tolist(), trace.z.tolist()))
    )
    tx = np.frombuffer(wire.getbuffer(), np.uint8).reshape(len(trace), -1)
    if modem_cfg.noise_sigma == 0:
        decide = demodulate(channel_apply(modulate([[0], [1]]), modem_cfg))[:, 0]
        rows, rx = slice(None), decide[tx]
    else:
        rows, rx = _send_gated(tx, modem_cfg, SYNC_BITS)
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

    # decoded (x, y, z) of each frame sent; frame first_id + k is the k-th
    # frame sent, and delivery j is of sent frame got_index[j]
    sent_xyz = fields[sent, 1:]
    got_index = ids - first_id
    del fields, steps, ids
    w = profile.window_size
    # verdict v is that of the window ending at delivery v + w - 1
    codes = _verdict_codes(sent_xyz[got_index, 2], sent_xyz[got_index, 1], profile)
    # the trigger arms the controller, and replaces the debouncer, after the
    # verdicts of the deliveries at or before its step
    n_unarmed = len(codes)
    if pir_step is not None:
        n_unarmed = max(0, int(np.searchsorted(arrival, pir_step, "right")) - w + 1)
    emitted_at, emitted = _emissions(codes, profile.debounce_n, n_unarmed)
    emitted_t = due[emitted_at + w - 1].tolist()
    actions = [(t, _ACTIONS[code]) for t, code in zip(emitted_t, emitted.tolist())]
    # The controller, armed by the trigger, takes each armed emission in
    # order; each line it logs after the trigger is keyed by the verdict
    # whose action caused it.
    ctrl = HomeController()
    if pir_step is not None:
        ctrl.pir_trigger(pir_at)
    trigger = ctrl.log[:]
    caused = []  # per APPLIANCE line, its verdict
    armed = int(np.searchsorted(emitted_at, n_unarmed))
    for (t, action), v in zip(actions[armed:], emitted_at[armed:].tolist()):
        logged = len(ctrl.log)
        ctrl.apply_action(action, t)
        caused += [v] * (len(ctrl.log) - logged)
    appliance = ctrl.log[len(trigger) :]

    # The log, as one table. Each kind of line is rendered once and goes
    # onto the end of `lines`, with an int64 column of its keys in `keys`.
    # The header has key -1, and the line of an event at step s the key
    # 3 * s + phase: phase 0 for the step's deliveries, 1 for the ACTION
    # lines of the windows they complete, each followed by the APPLIANCE
    # line its action causes, and 2 for the trigger or the sample's own
    # lines. One stable sort by key puts the table in log order, lines of
    # one key keeping their order here. Each column is dropped once its
    # lines exist, so that what the render holds on top of the log is a
    # few columns and one chunk of frames.
    lines = sim.log[:]
    keys = [np.full(len(lines), -1)]
    lines += trigger
    keys.append(np.full(len(trigger), 3 * (pir_step or 0) + 2))
    corrupt = np.flatnonzero(~ok)
    lines += [
        f"[t={t}] FRAME_CORRUPTED codec integrity check failed" for t in times[corrupt].tolist()
    ]
    keys.append(3 * sample_step[corrupt] + 2)
    del corrupt, sample_step
    # the frames sent a..b-1 and their deliveries, j..k-1 (frames arrive
    # in send order), whose lines share the frames' details, one chunk at
    # a time; delivery 0 is the one that may announce acquisition
    for a in range(0, len(sent), _RENDER_FRAMES):
        b = min(a + _RENDER_FRAMES, len(sent))
        j, k = np.searchsorted(got_index, (a, b)).tolist()
        details = frame_details(range(first_id + a, first_id + b), *sent_xyz[a:b].T.tolist())
        picked = [details[i] for i in (got_index[j:k] - a).tolist()]
        rows, chunk = delivery_lines(due[j:k].tolist(), announced and j == 0 < k, picked)
        lines += chunk
        keys.append(3 * arrival[j:k][rows])
        rows, chunk = send_lines(first_id + a, lost[a:b], times[sent[a:b]].tolist(), details)
        lines += chunk
        keys.append(3 * sent_step[a:b][rows] + 2)
    del sent_xyz, got_index, sent, sent_step, lost
    texts = [action.value for action in _ACTIONS]
    acted = [
        f"[t={t}] ACTION {texts[code]}" for t, code in zip(due[w - 1 :].tolist(), codes.tolist())
    ]
    after = np.array(caused, dtype=np.int64) + 1  # each APPLIANCE line's place
    lines.extend(np.insert(np.array(acted, dtype=object), after, appliance))
    del acted
    verdict = np.insert(np.arange(len(codes)), after, caused)  # of each line
    keys.append(3 * arrival[verdict + w - 1] + 1)
    del due, arrival
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    del keys
    table = np.array(lines, dtype=object)
    del lines
    table = table[order]
    del order
    log = table.tolist()

    return PipelineResult(
        powered=ctrl.powered,
        log=log,
        frames_sent=sim.sent_count,
        frames_delivered=sim.delivered_count,
        frames_lost=sim.lost_count,
        frames_corrupted=len(times) - sim.sent_count,
        windows_classified=len(codes),
        actions=actions,
    )
