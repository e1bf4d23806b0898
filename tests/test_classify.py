import re
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wristlink.classify import (
    DEFAULT_OFF_BAND,
    DEFAULT_ON_BAND,
    Action,
    CalibrationError,
    CalibrationProfile,
    Debouncer,
    ProfileError,
    _emissions,
    calibrate,
    classify_window,
    classify_windows,
    debounced_stream,
    load_profile,
    save_profile,
    window_mean,
)
from wristlink.sensor import (
    HORIZONTAL_Y_COUNTS,
    IDLE_COUNTS,
    VERTICAL_Z_COUNTS,
    AccelSample,
    GestureKind,
    Trace,
    generate_gesture,
)


def window_from(values, axis, other=200):
    axes = {"x": other, "y": other, "z": other}
    out = []
    for i, v in enumerate(values):
        axes[axis] = v
        out.append(AccelSample(t=i * 20, **axes))
    return out


ON_WINDOW = window_from(VERTICAL_Z_COUNTS, "z")
OFF_WINDOW = window_from(HORIZONTAL_Y_COUNTS, "y")
NOTHING_WINDOW = [
    AccelSample(t=i * 20, x=v, y=v, z=v) for i, v in enumerate(IDLE_COUNTS)
]


class TestWindowMean:
    def test_reference_on_window_mean(self):
        assert window_mean(ON_WINDOW, "z") == Fraction(4650, 17)

    def test_reference_off_window_mean(self):
        assert window_mean(OFF_WINDOW, "y") == Fraction(6398, 18)

    def test_reference_nothing_window_mean(self):
        assert window_mean(NOTHING_WINDOW, "z") == Fraction(3885, 19)

    def test_constant_window(self):
        win = window_from([42] * 5, "z")
        assert window_mean(win, "z") == 42

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            window_mean([], "z")

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            window_mean(ON_WINDOW, "w")

    @pytest.mark.parametrize("axis", [1, None, b"z"])
    def test_non_string_axis_rejected_naming_it(self, axis):
        message = f"^axis must be a str, got {type(axis).__name__}$"
        with pytest.raises(ValueError, match=message):
            window_mean(ON_WINDOW, axis)

    def test_non_sample_rejected_naming_its_type(self):
        with pytest.raises(ValueError, match="^window samples item must be an AccelSample, got int$"):
            window_mean([1, 2], "z")

    def test_mean_is_exact_not_rounded(self):
        win = window_from([1, 2], "y")
        assert window_mean(win, "y") == Fraction(3, 2)


class TestClassifyWindow:
    def test_reference_on_rows_classify_on(self):
        profile = CalibrationProfile(window_size=17)
        assert classify_window(ON_WINDOW, profile) is Action.ON

    def test_reference_off_rows_classify_off(self):
        profile = CalibrationProfile(window_size=18)
        assert classify_window(OFF_WINDOW, profile) is Action.OFF

    def test_reference_idle_rows_classify_do_nothing(self):
        profile = CalibrationProfile(window_size=19)
        assert classify_window(NOTHING_WINDOW, profile) is Action.DO_NOTHING

    def test_all_zero_window_does_nothing(self):
        profile = CalibrationProfile(window_size=4)
        win = [AccelSample(t=i, x=0, y=0, z=0) for i in range(4)]
        assert classify_window(win, profile) is Action.DO_NOTHING

    def test_inclusive_lower_bound_on_band(self):
        profile = CalibrationProfile(window_size=3)
        win = window_from([240, 240, 240], "z")
        assert classify_window(win, profile) is Action.ON

    def test_inclusive_upper_bound_on_band(self):
        profile = CalibrationProfile(window_size=3)
        win = window_from([286, 286, 286], "z")
        assert classify_window(win, profile) is Action.ON

    def test_just_outside_band_does_nothing(self):
        profile = CalibrationProfile(window_size=3)
        # mean 286 + 1/3 falls outside the inclusive band edge
        win = window_from([286, 286, 287], "z")
        assert classify_window(win, profile) is Action.DO_NOTHING

    def test_on_checked_before_off(self):
        # both bands satisfiable is impossible with disjoint bands on
        # different axes unless the window hits both; z wins by order
        profile = CalibrationProfile(window_size=2)
        win = [
            AccelSample(t=0, x=0, y=350, z=250),
            AccelSample(t=1, x=0, y=350, z=250),
        ]
        assert classify_window(win, profile) is Action.ON

    def test_wrong_window_length_rejected(self):
        profile = CalibrationProfile(window_size=5)
        with pytest.raises(ValueError):
            classify_window(ON_WINDOW, profile)

    def test_non_sample_rejected_naming_its_type(self):
        with pytest.raises(ValueError, match="^window samples item must be an AccelSample, got int$"):
            classify_window([1] * 16, CalibrationProfile())

    def test_permutation_invariant(self):
        profile = CalibrationProfile(window_size=17)
        shuffled = list(ON_WINDOW)
        Random(3).shuffle(shuffled)
        assert classify_window(shuffled, profile) is Action.ON

    def test_uniform_shift_within_band_preserves_verdict(self):
        profile = CalibrationProfile(window_size=17)
        base_mean = window_mean(ON_WINDOW, "z")
        shift = int(286 - base_mean)  # keeps the mean at or below the band top
        shifted = [
            AccelSample(t=s.t, x=s.x, y=s.y, z=s.z + shift) for s in ON_WINDOW
        ]
        assert window_mean(shifted, "z") <= 286
        assert classify_window(shifted, profile) is Action.ON


def brute_force_verdict(values_xyz, on_band, off_band):
    """Independent route: integer cross-multiplied band comparisons."""
    n = len(values_xyz)
    z_total = sum(v[2] for v in values_xyz)
    if on_band[0] * n <= z_total <= on_band[1] * n:
        return Action.ON
    y_total = sum(v[1] for v in values_xyz)
    if off_band[0] * n <= y_total <= off_band[1] * n:
        return Action.OFF
    return Action.DO_NOTHING


def test_oracle_equivalence_randomized_100k():
    # the first 1,000 cases go through classify_window itself; every case
    # goes through one classify_windows call per window size n, over that
    # size's cases laid end to end, whose every n-th verdict is a case's
    rng = Random(12345)
    by_size: dict[int, list] = {}
    for case in range(100_000):
        n = rng.randint(1, 8)
        values = [
            (rng.randint(169, 384), rng.randint(169, 384), rng.randint(169, 384))
            for _ in range(n)
        ]
        expected = brute_force_verdict(values, DEFAULT_ON_BAND, DEFAULT_OFF_BAND)
        if case < 1_000:
            window = [
                AccelSample(t=i, x=v[0], y=v[1], z=v[2]) for i, v in enumerate(values)
            ]
            assert classify_window(window, CalibrationProfile(window_size=n)) is expected
        by_size.setdefault(n, []).append((values, expected))
    for n, cases in by_size.items():
        flat = [v for values, _ in cases for v in values]
        verdicts = classify_windows(
            [v[2] for v in flat], [v[1] for v in flat], CalibrationProfile(window_size=n)
        )
        assert verdicts[::n] == [expected for _, expected in cases]


def test_sliding_windows_match_brute_force():
    rng = Random(2024)
    for _ in range(300):
        n = rng.randint(0, 40)
        values = [tuple(rng.randint(169, 384) for _ in range(3)) for _ in range(n)]
        profile = CalibrationProfile(window_size=rng.randint(1, 20))
        w = profile.window_size
        verdicts = classify_windows([v[2] for v in values], [v[1] for v in values], profile)
        assert verdicts == [
            brute_force_verdict(values[k : k + w], DEFAULT_ON_BAND, DEFAULT_OFF_BAND)
            for k in range(n - w + 1)
        ]


@pytest.mark.parametrize(
    "z, y, message",
    [
        ([1.5, 2.0], [1, 2], "^z counts must have an integer dtype, got float64 1.5$"),
        ([1, 2], [True, False], "^y counts must have an integer dtype, got bool True$"),
        ([[1, 2]], [[1, 2]], "^z must be a 1-D integer sequence, got int64 of shape"),
        ([1, 2, 3], [1, 2], "^z has 3 counts but y has 2"),
    ],
)
def test_sliding_windows_take_equal_integer_sequences(z, y, message):
    with pytest.raises(ValueError, match=message):
        classify_windows(z, y, CalibrationProfile(window_size=2))


@pytest.mark.parametrize(
    "z, y, bad",
    [
        # the window mean is exactly 2**62, inside the on band, but the
        # int64 running sums would wrap past 2**63
        ([2**62, 2**62], [1, 1], "z counts must lie in 0..1023, got 4611686018427387904"),
        ([1, 2], [3, -1], "y counts must lie in 0..1023, got -1"),
        ([1024, -1], [3, 4], "z counts must lie in 0..1023, got 1024"),
        (
            np.array([1, 2**63], dtype=np.uint64),
            [1, 1],
            "z counts must lie in 0..1023, got 9223372036854775808",
        ),
    ],
)
def test_sliding_windows_take_raw_counts(z, y, bad):
    profile = CalibrationProfile(on_band=(2**62, 2**62), off_band=(0, 0), window_size=2)
    with pytest.raises(ValueError, match=f"^{bad}$"):
        classify_windows(z, y, profile)


def test_sliding_windows_take_the_count_range_ends():
    profile = CalibrationProfile(on_band=(1023, 1023), off_band=(0, 0), window_size=1)
    assert classify_windows([1023, 0], [5, 0], profile) == [Action.ON, Action.OFF]


@pytest.mark.parametrize("on_band", [(-5, -1), (-5, 0), (1023, 2000), (1024, 2000)])
@pytest.mark.parametrize("count", [0, 1023])
def test_band_ends_just_outside_the_count_range(on_band, count):
    # a window's sum lies in 0..1023 * w, and the band ends are clipped to
    # -1..1024 before scaling: an end one past the counts still decides a
    # window of all 0s or all 1023s by the exact rule
    profile = CalibrationProfile(on_band=on_band, off_band=(3000, 3001), window_size=3)
    inside = on_band[0] <= count <= on_band[1]
    verdict = Action.ON if inside else Action.DO_NOTHING
    assert classify_windows([count] * 4, [0] * 4, profile) == [verdict] * 2


def fraction_mean_verdict(window, on_band, off_band):
    """Reference route: band membership of the exact rational axis means."""
    z_mean = Fraction(sum(s.z for s in window), len(window))
    if on_band[0] <= z_mean <= on_band[1]:
        return Action.ON
    y_mean = Fraction(sum(s.y for s in window), len(window))
    if off_band[0] <= y_mean <= off_band[1]:
        return Action.OFF
    return Action.DO_NOTHING


def with_sum(values, target):
    """`values` changed element by element, within 0..1023, to sum to `target`."""
    out = list(values)
    diff = target - sum(out)
    for i, v in enumerate(out):
        step = max(-v, min(1023 - v, diff))
        out[i] = v + step
        diff -= step
    return out


@st.composite
def windows_and_bands(draw):
    w = draw(st.integers(1, 32))
    b, c = sorted(draw(st.lists(st.integers(0, 1023), min_size=2, max_size=2, unique=True)))
    low, high = (draw(st.integers(0, b)), b), (c, draw(st.integers(c, 1023)))
    on_band, off_band = (low, high) if draw(st.booleans()) else (high, low)
    counts = st.lists(st.integers(0, 1023), min_size=w, max_size=w)
    axes = {"z": draw(counts), "y": draw(counts)}
    # optionally land one axis sum on a band edge times w, or one off it
    pin = draw(st.sampled_from([None, ("z", on_band), ("y", off_band)]))
    if pin is not None:
        axis, band = pin
        edge = draw(st.sampled_from(band)) * w + draw(st.sampled_from([-1, 0, 1]))
        axes[axis] = with_sum(axes[axis], min(max(edge, 0), 1023 * w))
    window = [
        AccelSample(t=i, x=0, y=y, z=z) for i, (y, z) in enumerate(zip(axes["y"], axes["z"]))
    ]
    return window, on_band, off_band


@settings(max_examples=500, deadline=None)
@given(windows_and_bands())
def test_integer_classifier_matches_fraction_means(case):
    window, on_band, off_band = case
    profile = CalibrationProfile(
        on_band=on_band, off_band=off_band, window_size=len(window)
    )
    assert classify_window(window, profile) is fraction_mean_verdict(
        window, on_band, off_band
    )


@pytest.mark.parametrize("w", [1, 3, 16, 32])
@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_sum_exactly_on_band_edge_is_inside(w, edge):
    lo, hi = DEFAULT_ON_BAND
    z = with_sum([0] * w, (lo if edge == "lo" else hi) * w)
    window = [AccelSample(t=i, x=0, y=0, z=v) for i, v in enumerate(z)]
    profile = CalibrationProfile(window_size=w)
    assert fraction_mean_verdict(window, DEFAULT_ON_BAND, DEFAULT_OFF_BAND) is Action.ON
    assert classify_window(window, profile) is Action.ON


class TestCalibrate:
    def on_trace(self):
        return Trace(tuple(ON_WINDOW), label=GestureKind.VERTICAL_UP_DOWN)

    def off_trace(self):
        return Trace(tuple(OFF_WINDOW), label=GestureKind.HORIZONTAL)

    def test_zero_margin_bands_match_reference_extremes(self):
        profile = calibrate([self.on_trace()], [self.off_trace()], 0, 0)
        assert profile.on_band == (261, 284)
        assert profile.off_band == (323, 381)

    def test_margins_widen_bands(self):
        profile = calibrate([self.on_trace()], [self.off_trace()], 5, 10)
        assert profile.on_band == (256, 294)
        assert profile.off_band == (318, 391)

    def test_overlapping_margins_rejected(self):
        # 284 + 40 = 324 reaches past the off band's low edge at 323
        with pytest.raises(CalibrationError, match="overlap"):
            calibrate([self.on_trace()], [self.off_trace()], 0, 40)

    def test_inverting_margin_is_a_calibration_error(self):
        # 261 + 100 > 284: CalibrationProfile rejects the band, and calibrate
        # reports it as its own error
        with pytest.raises(CalibrationError, match=r"^on_band must be an interval"):
            calibrate([self.on_trace()], [self.off_trace()], -100, 0)

    def test_empty_input_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate([], [self.off_trace()], 0, 0)
        with pytest.raises(CalibrationError):
            calibrate([self.on_trace()], [], 0, 0)

    def test_wrong_label_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate([self.off_trace()], [self.off_trace()], 0, 0)

    def test_non_trace_rejected_naming_its_type(self):
        with pytest.raises(ValueError, match="^on_traces item must be a Trace, got list$"):
            calibrate([ON_WINDOW], [OFF_WINDOW])
        with pytest.raises(ValueError, match="^off_traces item must be a Trace, got tuple$"):
            calibrate([self.on_trace()], [tuple(OFF_WINDOW)])

    def test_generated_traces_bands_contain_training_means(self):
        for seed in range(30):
            on = [generate_gesture(GestureKind.VERTICAL_UP_DOWN, 16, seed)]
            off = [generate_gesture(GestureKind.HORIZONTAL, 16, seed + 1000)]
            profile = calibrate(on, off, 0, 0)
            z_mean = window_mean(on[0].samples, "z")
            y_mean = window_mean(off[0].samples, "y")
            assert profile.on_band[0] <= z_mean <= profile.on_band[1]
            assert profile.off_band[0] <= y_mean <= profile.off_band[1]


class TestDebounce:
    def test_run_of_three_emits_once(self):
        assert debounced_stream([Action.ON] * 3, 2) == [Action.ON]

    def test_alternation_never_reaches_run_length(self):
        verdicts = [Action.ON, Action.OFF, Action.ON, Action.OFF]
        assert debounced_stream(verdicts, 2) == []

    def test_do_nothing_breaks_runs(self):
        verdicts = [Action.ON, Action.ON, Action.DO_NOTHING, Action.OFF, Action.OFF]
        assert debounced_stream(verdicts, 2) == [Action.ON, Action.OFF]

    def test_re_emission_after_opposite_action(self):
        verdicts = [Action.ON] * 2 + [Action.OFF] * 2 + [Action.ON] * 2
        assert debounced_stream(verdicts, 2) == [Action.ON, Action.OFF, Action.ON]

    def test_n_one_emits_on_first_sight(self):
        assert debounced_stream([Action.ON, Action.ON, Action.OFF], 1) == [
            Action.ON,
            Action.OFF,
        ]

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            Debouncer(0)

    @pytest.mark.parametrize("verdict", ["garbage", "ON", None, 1])
    def test_non_action_verdict_rejected(self, verdict):
        gate = Debouncer(1)
        message = f"^verdict must be an Action, got {type(verdict).__name__}$"
        with pytest.raises(ValueError, match=message):
            gate.push(verdict)
        with pytest.raises(ValueError, match=message):
            debounced_stream([Action.ON, verdict], 1)
        # the rejected value left the run as it was
        assert gate.push(Action.ON) is Action.ON

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(list(Action)), max_size=60),
        st.integers(1, 5),
    )
    def test_never_repeats_and_never_emits_do_nothing(self, verdicts, n):
        out = debounced_stream(verdicts, n)
        assert Action.DO_NOTHING not in out
        for a, b in zip(out, out[1:]):
            assert a is not b

    @settings(max_examples=500, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 2), max_size=60),
        n=st.integers(1, 5),
        split=st.none() | st.integers(0, 60),
    )
    def test_run_length_pass_equals_the_streaming_debouncer(self, codes, n, split):
        # the column pass against Debouncer.push one verdict at a time, a
        # fresh Debouncer taking over at verdict `split` (as at the PIR
        # trigger), or none doing so; a code is its Action's place in
        # definition order
        fresh_at = len(codes) if split is None else min(split, len(codes))
        want, gate = [], Debouncer(n)
        for v, code in enumerate(codes):
            if v == fresh_at:
                gate = Debouncer(n)
            action = gate.push(list(Action)[code])
            if action is not None:
                want.append((v, action))
        at, emitted = _emissions(np.array(codes, dtype=np.int8), n, fresh_at)
        assert at.dtype.kind == "i" and emitted.dtype == np.int8
        assert [(v, list(Action)[c]) for v, c in zip(at.tolist(), emitted.tolist())] == want


class TestProfile:
    def test_default_bands(self):
        p = CalibrationProfile()
        assert p.on_band == (240, 286)
        assert p.off_band == (323, 384)
        assert p.window_size == 16
        assert p.debounce_n == 2

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            CalibrationProfile(on_band=(240, 330), off_band=(323, 384))

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            CalibrationProfile(on_band=(286, 240))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"window_size": 2.5}, "window_size"),
            ({"window_size": True}, "window_size"),
            ({"debounce_n": 1.5}, "debounce_n"),
            ({"on_band": (240.5, 286)}, "on_band[0]"),
            ({"on_band": (True, 286)}, "on_band[0]"),
            ({"off_band": (323, 384.0)}, "off_band[1]"),
        ],
    )
    def test_non_integer_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be an integer"):
            CalibrationProfile(**kwargs)

    @pytest.mark.parametrize("band", [5, True, None, "ab", {240: 286}])
    def test_band_must_be_a_list_or_tuple(self, band):
        with pytest.raises(ValueError, match=r"^on_band must be an interval \[lo, hi\], got "):
            CalibrationProfile(on_band=band)

    @pytest.mark.parametrize(
        "band, shown",
        [
            ("x" * 78, repr("x" * 78)),
            ("x" * 79, f"'{'x' * 79}... (a value of 81 characters)"),
            ((1,) * 26, repr((1,) * 26)),
            ((1,) * 27, f"({'1, ' * 26}1... (a value of 81 characters)"),
            (list(range(100_000)), None),
        ],
    )
    def test_refused_band_shown_up_to_80_characters(self, band, shown):
        # a band is shown whole up to 80 characters, past that by its first
        # 80 and its length; a 100,000-item band gives a short error
        with pytest.raises(ValueError) as info:
            CalibrationProfile(on_band=band)
        message = str(info.value)
        if shown is not None:
            assert message == f"on_band must be an interval [lo, hi], got {shown}"
        assert len(message) < 200

    @pytest.mark.parametrize("band", ["5", "[240]", "[240, 286, 300]", '"240-286"'])
    def test_document_band_rejected_by_the_profile(self, tmp_path, band):
        path = tmp_path / "profile.json"
        path.write_text(
            f'{{"on_band": {band}, "off_band": [323, 384], "window_size": 16, "debounce_n": 2}}'
        )
        with pytest.raises(ProfileError, match="on_band must be an interval") as info:
            load_profile(path)
        assert str(path) in str(info.value)

    def test_json_round_trip(self, tmp_path):
        p = CalibrationProfile(on_band=(250, 280), off_band=(330, 370), window_size=8, debounce_n=3)
        path = tmp_path / "profile.json"
        save_profile(p, path)
        assert load_profile(path) == p

    def test_saved_document_bytes(self, tmp_path):
        path = tmp_path / "profile.json"
        save_profile(CalibrationProfile(), path)
        assert path.read_text(encoding="ascii") == (
            '{\n  "on_band": [\n    240,\n    286\n  ],\n'
            '  "off_band": [\n    323,\n    384\n  ],\n'
            '  "window_size": 16,\n  "debounce_n": 2\n}\n'
        )

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(
            '{"on_band": [240, 286], "off_band": [323, 384],'
            ' "window_size": 16, "debounce_n": 2, "extra": 1}'
        )
        with pytest.raises(ProfileError, match="extra"):
            load_profile(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"on_band": [240, 286]}')
        with pytest.raises(ProfileError, match="missing"):
            load_profile(path)

    def test_non_integer_values_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(
            '{"on_band": [240.5, 286], "off_band": [323, 384],'
            ' "window_size": 16, "debounce_n": 2}'
        )
        with pytest.raises(ProfileError, match="integer"):
            load_profile(path)

    def test_boolean_values_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(
            '{"on_band": [240, 286], "off_band": [323, 384],'
            ' "window_size": true, "debounce_n": 2}'
        )
        with pytest.raises(ProfileError, match="integer"):
            load_profile(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text("{nope")
        with pytest.raises(ProfileError):
            load_profile(path)

    def test_non_ascii_bytes_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_bytes('{"on_band": [240, 286], "note": "caf\u00e9"}'.encode("utf-8"))
        with pytest.raises(ProfileError, match="not ASCII") as info:
            load_profile(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "text, words",
        [
            ("[240, 286]", "not a JSON object"),
            ("16", "not a JSON object"),
            ("[" * 2000 + "]" * 2000, "not valid JSON"),
        ],
        ids=["array", "number", "deep"],
    )
    def test_document_fault_names_the_path(self, tmp_path, text, words):
        path = tmp_path / "profile.json"
        path.write_text(text)
        with pytest.raises(ProfileError) as info:
            load_profile(path)
        assert str(info.value).startswith(f"{path}: {words}")

    def test_integer_past_the_digit_bound_names_its_key(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(
            '{"on_band": [240, 286], "off_band": [323, ' + "3" * 641 + "],"
            ' "window_size": 16, "debounce_n": 2}'
        )
        with pytest.raises(ProfileError, match=r"key 'off_band': integer of more than 640 digits") as info:
            load_profile(path)
        assert str(info.value).startswith(f"{path}: ")
        assert "3" * 81 not in str(info.value)
