"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with `pytest -s -v tests/test_acceptance.py`)."""
import functools
import math
import re
import time
from fractions import Fraction
from random import Random

import numpy as np

from wristlink.classify import (
    Action,
    CalibrationProfile,
    calibrate,
    classify_window,
    window_mean,
)
from wristlink.cli import main as cli_main
from wristlink.controller import run_pipeline
from wristlink.demo import demo_csv_path
from wristlink.framing import (
    CodecFrame,
    CrcMismatchError,
    WatchMode,
    deserialize,
    serialize,
)
from wristlink.link import (
    ACQUIRING_MESSAGE,
    AP_STARTED_MESSAGE,
    EventKind,
    LinkConfig,
    LinkSimulator,
    ProtocolError,
)
from wristlink.modem import (
    ModemConfig,
    channel_apply,
    demodulate,
    measure_ber,
    modulate,
)
from wristlink.sensor import GestureKind, generate_gesture, load_trace


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        return wrapper

    return deco


@criterion("criterion 1: bundled reference traces replay to ON / OFF / DO_NOTHING")
def test_c1_reference_replay():
    started = time.perf_counter()
    cases = [
        ("on", "z", Fraction(4650, 17), Action.ON),
        ("off", "y", Fraction(6398, 18), Action.OFF),
        ("nothing", "z", Fraction(3885, 19), Action.DO_NOTHING),
    ]
    for name, axis, expected_mean, expected_action in cases:
        trace = load_trace(demo_csv_path(name))
        mean = window_mean(trace.samples, axis)
        assert mean == expected_mean  # exact rational equality
        profile = CalibrationProfile(window_size=len(trace))
        assert classify_window(trace.samples, profile) is expected_action
    # the default bands hold / exclude the exact means
    assert 240 <= Fraction(4650, 17) <= 286
    assert 323 <= Fraction(6398, 18) <= 384
    assert not 240 <= Fraction(3885, 19) <= 286
    assert not 323 <= Fraction(3885, 19) <= 384
    assert time.perf_counter() - started < 1.0


@criterion("criterion 2: codec single-bit detection exhaustive + 1e5 round trips")
def test_c2_codec_roundtrip_and_corruption():
    started = time.perf_counter()
    # exhaustive over every non-sync position (mode, payload, and crc field),
    # a superset of the 38 crc-protected payload+crc positions
    base = serialize(CodecFrame(WatchMode.ACC, x=100, y=360, z=277))
    detected = 0
    for pos in range(8, 48):
        corrupted = list(base)
        corrupted[pos] ^= 1
        try:
            deserialize(corrupted)
        except CrcMismatchError:
            detected += 1
    assert detected == 40

    rng = Random(20240817)
    for _ in range(100_000):
        frame = CodecFrame(
            mode=WatchMode(rng.randrange(4)),
            x=rng.randrange(1024),
            y=rng.randrange(1024),
            z=rng.randrange(1024),
        )
        assert deserialize(serialize(frame)) == frame
    assert time.perf_counter() - started < 10.0


@criterion("criterion 3: noiseless modem identity, BER@20dB < 1e-3, monotone sweep")
def test_c3_modem_identity_and_ber():
    clean = ModemConfig()
    rng = np.random.default_rng(7)
    n_frames = 10_000
    frames = [
        CodecFrame(
            mode=WatchMode(int(m)), x=int(x), y=int(y), z=int(z)
        )
        for m, x, y, z in zip(
            rng.integers(0, 4, n_frames),
            rng.integers(0, 1024, n_frames),
            rng.integers(0, 1024, n_frames),
            rng.integers(0, 1024, n_frames),
        )
    ]
    bits = b"".join(map(serialize, frames))
    assert demodulate(channel_apply(modulate(bits), clean)) == bits

    # the unit tone's power (1/2) over the noise power is 20 dB
    sigma_20db = math.sqrt(0.5 / 10 ** (20.0 / 10))
    assert measure_ber(ModemConfig(noise_sigma=sigma_20db, seed=1), 10_000) < 1e-3

    rates = [
        measure_ber(ModemConfig(noise_sigma=s, seed=3), 10_000)
        for s in (0.5, 1.0, 1.5, 2.0, 3.0)
    ]
    assert rates == sorted(rates)


def _drive_random_session(seed, n_ops):
    rng = Random(seed)
    cfg = LinkConfig(
        loss_probability=rng.choice([0.0, 0.2, 0.8]),
        latency=rng.randint(0, 20),
        seed=seed,
    )
    sim = LinkSimulator(cfg)
    t = 0
    for _ in range(n_ops):
        op = rng.choice(("start", "mode", "send", "send", "run", "run"))
        try:
            if op == "start":
                sim.ap_start()
            elif op == "mode":
                sim.watch_set_mode(rng.choice(list(WatchMode)))
            elif op == "send":
                sim.transmit_sample(
                    CodecFrame(
                        WatchMode.ACC,
                        x=rng.randrange(1024),
                        y=rng.randrange(1024),
                        z=rng.randrange(1024),
                    )
                )
            else:
                t += rng.randint(1, 25)
                sim.run_until(t)
        except ProtocolError:
            pass  # refusals are the protocol working; invariants checked below
    sim.run_until(t + 200)
    return sim


_EVENT_LINE = re.compile(r"\[t=(\d+)\] ([A-Z_]+)(?: (.*))?")
_FOLLOWING_LINE = {
    EventKind.AP_STARTED: AP_STARTED_MESSAGE,
    EventKind.ACQUIRE_ANNOUNCED: ACQUIRING_MESSAGE,
}


def _log_events(log):
    """(t, kind, detail, frame id or None) of each event line of a link
    log, in log order; the verbatim line that must follow an event is
    checked and skipped."""
    events, lines = [], iter(log)
    for line in lines:
        t, kind, detail = _EVENT_LINE.fullmatch(line).groups()
        kind, detail = EventKind(kind), detail or ""
        frame = re.match(r"frame=(\d+)", detail)
        events.append((int(t), kind, detail, frame and int(frame[1])))
        if kind in _FOLLOWING_LINE:
            assert next(lines) == _FOLLOWING_LINE[kind]
    return events


def _assert_session_invariants(sim):
    events = _log_events(sim.log)
    mode = None
    ap_started = False
    delivered_seen = 0
    announced = 0
    sent_times = {}
    spans = []
    in_flight = set()
    for t, kind, detail, frame_id in events:
        if kind in (EventKind.AP_STARTED, EventKind.MODE_SET):
            # half-duplex: AP control transmissions only on a quiet channel
            assert not in_flight, "AP transmitted while a frame was in flight"
            if kind is EventKind.AP_STARTED:
                ap_started = True
            else:
                mode = detail
        elif kind is EventKind.FRAME_SENT:
            assert ap_started, "frame sent before access point start"
            assert mode == "ACC", "data frame outside ACC mode"
            sent_times[frame_id] = t
            in_flight.add(frame_id)
        elif kind is EventKind.FRAME_LOST:
            in_flight.discard(frame_id)
        elif kind is EventKind.FRAME_DELIVERED:
            assert ap_started
            in_flight.discard(frame_id)
            delivered_seen += 1
            spans.append((sent_times[frame_id], t))
        elif kind is EventKind.ACQUIRE_ANNOUNCED:
            announced += 1
            assert delivered_seen >= 1, "announce before any delivery"
    assert announced == (1 if sim.delivered_count >= 1 else 0)
    assert sim.log.count(ACQUIRING_MESSAGE) == announced
    # interval view of the same rule: no AP transmission strictly inside a
    # [sent, delivered) flight span
    ap_tx = [
        t
        for t, kind, _, _ in events
        if kind in (EventKind.AP_STARTED, EventKind.MODE_SET)
    ]
    for at in ap_tx:
        for lo, hi in spans:
            assert not (lo < at < hi), "AP transmitted during a frame flight"
    assert sim.delivered_count + sim.lost_count + sim.frames_in_flight == sim.sent_count


@criterion("criterion 4: protocol invariants hold over 1e4+ random operations")
def test_c4_protocol_invariants():
    total_ops = 0
    for session in range(120):
        sim = _drive_random_session(seed=session, n_ops=100)
        _assert_session_invariants(sim)
        total_ops += 100
    assert total_ops >= 10_000


@criterion("criterion 5: gate soundness over 1e3 randomized pipeline runs")
def test_c5_gate_soundness():
    rng = Random(555)
    runs = 1000
    for case in range(runs):
        kind = rng.choice(list(GestureKind))
        trace = generate_gesture(kind, rng.randint(6, 28), seed=case)
        pir_at = rng.choice([None, 0, 0, 150, 400])
        result = run_pipeline(
            trace,
            profile=CalibrationProfile(window_size=rng.choice([4, 8, 16])),
            link_cfg=LinkConfig(
                loss_probability=rng.choice([0.0, 0.1, 0.3]), seed=case
            ),
            pir_at=pir_at,
        )
        pir_seen = False
        for line in result.log:
            if "PIR TRIGGERED" in line:
                pir_seen = True
            if "APPLIANCE" in line:
                assert pir_seen, "appliance transition without preceding trigger"
        if pir_at is None:
            assert result.powered is False


@criterion("criterion 5b: gate liveness, a gesture held after arming is honored")
def test_c5b_gate_liveness():
    # at loss 0 and sigma 0 every window of a vertical trace is ON; once the
    # gate arms, window_size + debounce_n more deliveries fill a window and
    # hold the ON for debounce_n verdicts, whatever was emitted unarmed
    rng = Random(5005)
    latency = LinkConfig().latency
    honored = 0
    for case in range(300):
        profile = CalibrationProfile(
            window_size=rng.choice([4, 8, 16]), debounce_n=rng.choice([1, 2, 3])
        )
        trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, rng.randint(6, 60), seed=case)
        pir_at = rng.randint(0, trace[-1].t)
        result = run_pipeline(trace, profile=profile, pir_at=pir_at)
        # a delivery due at exactly pir_at is consumed before the trigger
        after = sum(1 for s in trace if s.t + latency > pir_at)
        if after >= profile.window_size + profile.debounce_n:
            assert result.powered, (case, pir_at, result.actions)
            honored += 1
    assert honored >= 100


@criterion("criterion 6: loss robustness, 95/100 at loss 0.2 and 100/100 at loss 0")
def test_c6_loss_robustness():
    trace = generate_gesture(GestureKind.VERTICAL_UP_DOWN, 64, seed=42)
    powered_lossy = sum(
        run_pipeline(
            trace,
            link_cfg=LinkConfig(loss_probability=0.2, seed=s),
            pir_at=0,
        ).powered
        for s in range(100)
    )
    assert powered_lossy >= 95, f"only {powered_lossy}/100 lossy runs powered on"
    powered_clean = sum(
        run_pipeline(
            trace,
            link_cfg=LinkConfig(loss_probability=0.0, seed=s),
            pir_at=0,
        ).powered
        for s in range(100)
    )
    assert powered_clean == 100


@criterion("criterion 7: CLI reruns with identical flags are byte-identical")
def test_c7_cli_determinism(tmp_path):
    sim_args = ["simulate", "--demo", "on", "--seed", "7", "--loss", "0.1",
                "--noise", "0.5"]
    assert cli_main(sim_args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(sim_args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("simulation.log", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()

    ber_args = ["ber", "--sigma-min", "0", "--sigma-max", "2", "--points", "4",
                "--bits", "2000", "--seed", "3"]
    assert cli_main(ber_args + ["--out", str(tmp_path / "c")]) == 0
    assert cli_main(ber_args + ["--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "c" / "ber.csv").read_bytes() == (
        tmp_path / "d" / "ber.csv"
    ).read_bytes()

    gen_args = ["gen", "--kind", "horizontal", "--n", "40", "--seed", "11"]
    assert cli_main(gen_args + ["--out", str(tmp_path / "e")]) == 0
    assert cli_main(gen_args + ["--out", str(tmp_path / "f")]) == 0
    assert (tmp_path / "e" / "trace_horizontal.csv").read_bytes() == (
        tmp_path / "f" / "trace_horizontal.csv"
    ).read_bytes()


@criterion("criterion 8: zero-margin calibration reproduces reference extremes")
def test_c8_calibration_oracle():
    on_trace = load_trace(demo_csv_path("on"), label=GestureKind.VERTICAL_UP_DOWN)
    off_trace = load_trace(demo_csv_path("off"), label=GestureKind.HORIZONTAL)
    profile = calibrate([on_trace], [off_trace], 0, 0)
    # independent oracle: min/max recomputed from the loaded rows
    zs = [s.z for s in on_trace]
    ys = [s.y for s in off_trace]
    assert profile.on_band == (min(zs), max(zs)) == (261, 284)
    assert profile.off_band == (min(ys), max(ys)) == (323, 381)
