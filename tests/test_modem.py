import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wristlink
from wristlink.controller import run_pipeline
from wristlink.framing import CodecFrame, WatchMode, deserialize, serialize
from wristlink.modem import (
    BLOCK_SAMPLES,
    F0,
    F1,
    NOISE_SIGMA_MAX,
    SAMPLE_RATE,
    SAMPLES_PER_BIT,
    ModemConfig,
    _PROBES,
    _seed_state_words,
    _send_gated,
    channel_apply,
    demodulate,
    measure_ber,
    modulate,
)
from wristlink.sensor import generate_gesture

CLEAN = ModemConfig()  # attenuation 1.0, noise 0
# bits per block of a measure_ber transmission
BER_BLOCK_BITS = BLOCK_SAMPLES // SAMPLES_PER_BIT
NOISY = ModemConfig(noise_sigma=0.6, seed=3)

# sweep pinned by a pre-build Monte Carlo run: these sigmas give error rates
# near 0.0002 / 0.07 / 0.21 / 0.30 / 0.41, far enough apart that monotonicity
# is robust at 10^4 bits
SWEEP_SIGMAS = (0.5, 1.0, 1.5, 2.0, 3.0)


def whole_row_ber(cfg: ModemConfig, n_bits: int) -> float:
    """measure_ber as one call per stage over the whole transmission: the
    bits as one row with the phase carried from 0, its noise from the noise
    sub-seed as row 0's seed."""
    bit_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    bits = np.random.default_rng(bit_ss).integers(0, 2, (1, n_bits))
    noise_cfg = replace(cfg, seed=int(noise_ss.generate_state(1, np.uint64)[0]))
    rx = channel_apply(modulate(bits, np.zeros(1)), noise_cfg)
    return float(np.mean(demodulate(rx) != bits))


def bfsk_ber(sigma: float) -> float:
    """Noncoherent orthogonal BFSK bit error rate, 1/2 exp(-Eb/2N0) (Proakis,
    Digital Communications): Eb = 8 for a unit tone over 16 samples, and
    N0 = 2 sigma^2, so 1/2 exp(-2/sigma^2) at the modem defaults."""
    return 0.5 * math.exp(-2.0 / sigma**2)


class TestConfig:
    def test_defaults_valid(self):
        assert F0 == 1000.0 and F1 == 2000.0
        assert SAMPLE_RATE == 16000.0 and SAMPLES_PER_BIT == 16

    def test_config_is_the_channel_only(self):
        names = [f.name for f in fields(ModemConfig)]
        assert names == ["channel_attenuation", "noise_sigma", "seed"]

    @pytest.mark.parametrize("bit", [0, 1])
    def test_default_probes_orthogonal_on_clean_tone(self, bit):
        # a whole number of cycles of either tone per bit window: a clean tone
        # leaves no energy in the other tone's probe
        wave = modulate([bit])
        other = _PROBES[:, 2:] if bit == 0 else _PROBES[:, :2]
        own = _PROBES[:, :2] if bit == 0 else _PROBES[:, 2:]
        assert np.max(np.abs(wave @ other)) < 1e-9
        assert np.hypot(*(wave @ own)) == pytest.approx(SAMPLES_PER_BIT / 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"channel_attenuation": 0.0},
            {"channel_attenuation": 1.5},
            {"noise_sigma": -0.1},
            # seeds that were once coerced to another seed's noise stream
            {"seed": 1.5},
            {"seed": -1},
            {"seed": True},
            {"seed": 2**64},
            {"seed": np.uint64(1)},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModemConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["channel_attenuation", "noise_sigma"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ModemConfig(**{name: value})

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.1", None])
    @pytest.mark.parametrize("name", ["channel_attenuation", "noise_sigma"])
    def test_bool_values_rejected(self, name, value):
        # noise_sigma=True would run at sigma 1, attenuation=True at gain 1,
        # and so would np.True_; a string or None is no channel quantity
        with pytest.raises(ValueError, match=name):
            ModemConfig(**{name: value})


class TestNoiseBound:
    def test_next_float_up_refused(self):
        assert ModemConfig(noise_sigma=NOISE_SIGMA_MAX).noise_sigma == NOISE_SIGMA_MAX
        with pytest.raises(ValueError, match="^noise_sigma must be a finite number in"):
            ModemConfig(noise_sigma=math.nextafter(NOISE_SIGMA_MAX, math.inf))

    def test_largest_sigma_runs_without_warning(self):
        # demodulate's tone energies stay finite: no overflow warning, and
        # bits decided by the noise, not all 0
        cfg = ModemConfig(noise_sigma=NOISE_SIGMA_MAX, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate = measure_ber(cfg, 4 * BER_BLOCK_BITS // 3)
            result = run_pipeline(generate_gesture("vertical", 512, 1), modem_cfg=cfg)
        assert 0.45 < rate < 0.55
        assert result.frames_sent + result.frames_corrupted == 512

    @pytest.mark.parametrize("probe", range(4))
    def test_worst_case_samples_at_the_bound_stay_finite(self, probe):
        # every sample at the derivation's ceiling, 14 sigma, signed to add
        # up in one probe: the largest correlation any channel output gives
        wave = 14 * NOISE_SIGMA_MAX * np.sign(_PROBES[:, probe])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(demodulate(np.tile(wave, 3))) == 3


class TestModulate:
    def test_empty_bits_empty_waveform(self):
        assert modulate([]).size == 0

    @pytest.mark.parametrize("shape", [(0, 8), (0, 0), (0, 16)])
    def test_empty_block(self, shape):
        # a block of no rows gives no rows of SAMPLES_PER_BIT samples per bit,
        # on the tone table and on the carried phase alike
        rows = (0, shape[1] * SAMPLES_PER_BIT)
        assert modulate(np.zeros(shape, dtype=np.uint8)).shape == rows
        assert modulate(np.zeros(shape, dtype=np.uint8), np.zeros(0)).shape == rows

    def test_single_one_is_f1_tone(self):
        wave = modulate([1])
        n = np.arange(SAMPLES_PER_BIT)
        expected = np.sin(2 * np.pi * F1 * n / SAMPLE_RATE)
        assert wave.shape == (SAMPLES_PER_BIT,)
        np.testing.assert_allclose(wave, expected, atol=1e-12)

    def test_single_zero_is_f0_tone(self):
        wave = modulate([0])
        n = np.arange(SAMPLES_PER_BIT)
        expected = np.sin(2 * np.pi * F0 * n / SAMPLE_RATE)
        np.testing.assert_allclose(wave, expected, atol=1e-12)

    def test_frame_length_contract(self):
        bits = serialize(CodecFrame(WatchMode.ACC, 100, 360, 277))
        wave = modulate(bits)
        assert wave.size == 48 * SAMPLES_PER_BIT

    def test_amplitude_bounded_by_one(self):
        wave = modulate([0, 1] * 32)
        assert np.max(np.abs(wave)) <= 1.0 + 1e-12

    def test_phase_continuous_across_bit_boundary(self):
        # either tone completes a whole number of cycles per bit, so the
        # continuous phase is back at 0 mod 2 pi at every bit boundary: each
        # bit's window is its tone from phase 0, and no step between samples
        # exceeds the F1 tone's
        bits = np.random.default_rng(5).integers(0, 2, 48)
        wave = modulate(bits)
        n = np.arange(SAMPLES_PER_BIT)
        for bit, window in zip(bits, wave.reshape(48, SAMPLES_PER_BIT)):
            expected = np.sin(2 * np.pi * (F1 if bit else F0) * n / SAMPLE_RATE)
            np.testing.assert_allclose(window, expected, atol=1e-9)
        max_step = 2 * np.pi * F1 / SAMPLE_RATE  # bound on |d sin(phase)|
        assert np.max(np.abs(np.diff(wave))) <= max_step + 1e-9

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            modulate([0, 2])

    def test_accepts_any_iterable(self):
        bits = [0, 1, 1, 0]
        np.testing.assert_array_equal(modulate(iter(bits)), modulate(bits))

    @pytest.mark.parametrize("freq", [F0, F1])
    def test_tone_plan_puts_whole_cycles_in_each_bit(self, freq):
        # what the tone table rests on: every bit starts at phase 0
        assert (SAMPLES_PER_BIT * freq / SAMPLE_RATE).is_integer()

    def test_tone_table_matches_running_phase(self):
        # the table gather against the running phase sum it replaced, which
        # modulate still computes when given a carry starting at zeros
        rng = np.random.default_rng(48)
        for n in (1, 5, 64):
            block = rng.integers(0, 2, (n, 48))
            np.testing.assert_allclose(
                modulate(block), modulate(block, np.zeros(n)), rtol=0, atol=1e-9
            )
        # and on the bits the detector decides: 12 grid points x 1800 frames
        # of 48 bits, 1.04M bits in all
        decided = 0
        for sigma in (0.0, 0.5, 1.0, 2.0):
            for attenuation in (1.0, 0.6, 0.1):
                cfg = ModemConfig(noise_sigma=sigma, channel_attenuation=attenuation, seed=7)
                block = rng.integers(0, 2, (1800, 48))
                table = demodulate(channel_apply(modulate(block), cfg))
                running = demodulate(channel_apply(modulate(block, np.zeros(1800)), cfg))
                np.testing.assert_array_equal(table, running)
                decided += table.size
        assert decided >= 1_000_000

    @pytest.mark.parametrize(
        "bits, as_array",
        [
            ([0, 1, 1, 0], [0, 1, 1, 0]),
            (iter([1, 0, 0]), [1, 0, 0]),
            (np.array([True, False, True]), [1, 0, 1]),
            (np.array([0.0, 1.0, 1.0]), [0, 1, 1]),
            ([], np.zeros(0)),  # np.asarray([]) is float64
            (np.zeros((3, 0), dtype=int), np.zeros((3, 0), dtype=int)),
            ([[0, 1], [1, 1]], [[0, 1], [1, 1]]),
        ],
        ids=["list", "iterator", "bool", "float", "empty", "3x0", "nested-list"],
    )
    def test_input_forms_keep_shape_and_values(self, bits, as_array):
        as_array = np.asarray(as_array)
        running = modulate(as_array, np.zeros(as_array.shape[:-1]))
        wave = modulate(bits)
        assert wave.dtype == np.float64 and wave.shape == running.shape
        np.testing.assert_allclose(wave, running, rtol=0, atol=1e-9)

    def test_phase_carry_splits_exactly(self):
        # pieces of uneven length, one of them empty, with one carry array
        bits = np.random.default_rng(16).integers(0, 2, (3, 5000))
        whole = modulate(bits, np.zeros(3))
        phase = np.zeros(3)
        cuts = [0, 1, 1, 2048, 2049, 4096, 5000]
        pieces = [modulate(bits[:, a:b], phase) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), whole)

    def test_phase_carry_on_one_row(self):
        bits = np.random.default_rng(2).integers(0, 2, 9000)
        phase = np.zeros(())
        pieces = [modulate(bits[a : a + 4096], phase) for a in range(0, 9000, 4096)]
        np.testing.assert_array_equal(np.concatenate(pieces), modulate(bits, np.zeros(())))
        assert phase > 0

    @pytest.mark.parametrize(
        "phase", [np.zeros(2), np.zeros(3, dtype=np.float32), [0.0, 0.0, 0.0]]
    )
    def test_phase_must_be_float64_row_array(self, phase):
        with pytest.raises(ValueError, match="phase"):
            modulate(np.zeros((3, 4), dtype=int), phase)


class TestChannel:
    def test_identity_when_clean(self):
        wave = modulate([1, 0, 1])
        out = channel_apply(wave, CLEAN)
        np.testing.assert_array_equal(out, wave)

    def test_attenuation_halves_every_sample(self):
        cfg = ModemConfig(channel_attenuation=0.5)
        wave = modulate([1, 0])
        out = channel_apply(wave, cfg)
        np.testing.assert_array_equal(out, wave * 0.5)

    def test_noise_deterministic_for_fixed_seed(self):
        cfg = ModemConfig(noise_sigma=0.3, seed=99)
        wave = modulate([1, 1, 0, 0])
        np.testing.assert_array_equal(channel_apply(wave, cfg), channel_apply(wave, cfg))

    def test_different_seeds_differ(self):
        base = ModemConfig(noise_sigma=0.3, seed=1)
        other = ModemConfig(noise_sigma=0.3, seed=2)
        wave = modulate([1, 0])
        assert not np.array_equal(channel_apply(wave, base), channel_apply(wave, other))

    def test_empty_waveform_with_noise(self):
        assert channel_apply(np.zeros(0), NOISY).size == 0
        assert channel_apply(np.zeros((3, 0)), NOISY).shape == (3, 0)

    def test_rng_draws_chunks_in_order(self):
        # one generator over pieces of a row gives the noise of one draw,
        # which is row 0's noise for that generator's seed
        cfg = ModemConfig(noise_sigma=0.9, channel_attenuation=0.6, seed=77)
        wave = modulate(np.random.default_rng(4).integers(0, 2, (1, 700)))
        rng = np.random.default_rng(77)
        cuts = [0, 5, 5, 4096, 6000, wave.shape[1]]
        pieces = [channel_apply(wave[:, a:b], cfg, [rng]) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), channel_apply(wave, cfg))

    def test_rng_rows_draw_in_order(self):
        # one generator listed for every row: the rows draw from it in turn
        cfg = ModemConfig(noise_sigma=0.4, seed=3)
        g = np.random.default_rng(8)
        out = channel_apply(np.zeros((3, 20)), cfg, [g] * 3)
        expected = np.random.default_rng(8).normal(0.0, 0.4, 60).reshape(3, 20)
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("attenuation", [1.0, 0.6, 1e-170])
    def test_noisy_sample_is_attenuated_wave_plus_scaled_normal(self, attenuation):
        # each sample is fl(a * w) + fl(sigma * n), n from row i's stream
        cfg = ModemConfig(channel_attenuation=attenuation, noise_sigma=0.7, seed=2**64 - 1)
        wave = modulate(np.random.default_rng(6).integers(0, 2, (3, 10)))
        out = channel_apply(wave, cfg)
        for i in range(3):
            normals = np.random.default_rng((cfg.seed + i) % 2**64).standard_normal(160)
            np.testing.assert_array_equal(out[i], attenuation * wave[i] + 0.7 * normals)

    @pytest.mark.parametrize("seed", [3, 2**64 - 3])
    def test_row_generators_continue_across_column_pieces(self, seed):
        # one generator per row, each continuing its own stream, over column
        # pieces of a block gives the noise of one seeded call; the cuts
        # fall inside a bit window and leave an empty piece
        cfg = ModemConfig(noise_sigma=0.8, channel_attenuation=0.6, seed=seed)
        wave = modulate(np.random.default_rng(5).integers(0, 2, (6, 48)))
        streams = [np.random.default_rng((seed + i) % 2**64) for i in range(6)]
        cuts = [0, 128, 128, 131, wave.shape[1]]
        pieces = [channel_apply(wave[:, a:b], cfg, streams) for a, b in zip(cuts, cuts[1:])]
        np.testing.assert_array_equal(np.concatenate(pieces, axis=1), channel_apply(wave, cfg))

    @pytest.mark.parametrize("shape, n_streams", [((3, 16), 2), ((3, 16), 4), ((16,), 2)])
    def test_row_generators_must_match_the_rows(self, shape, n_streams):
        streams = [np.random.default_rng(i) for i in range(n_streams)]
        rows = shape[0] if len(shape) == 2 else 1
        message = f"rng must hold one generator per row ({rows}), got {n_streams}"
        with pytest.raises(ValueError, match=re.escape(message)):
            channel_apply(np.zeros(shape), NOISY, streams)

    @pytest.mark.parametrize("shape", [(16,), (1, 16), (3, 16)])
    def test_bare_generator_refused(self, shape):
        # rng is None or a list of one generator per row, never one shared
        # Generator, whichever shape the waveform has
        rows = shape[0] if len(shape) == 2 else 1
        message = f"rng must hold one generator per row ({rows}), got Generator"
        with pytest.raises(ValueError, match=re.escape(message)):
            channel_apply(np.zeros(shape), NOISY, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "entry, kind", [(1, "int"), (np.random.RandomState(0), "RandomState")]
    )
    @pytest.mark.parametrize("shape", [(16,), (2, 16)])
    def test_each_rng_entry_must_be_a_generator(self, entry, kind, shape):
        # a wrong entry is named at the boundary, not met inside NumPy
        rows = shape[0] if len(shape) == 2 else 1
        streams = [np.random.default_rng(i) for i in range(rows - 1)] + [entry]
        message = f"rng[{rows - 1}] must be a Generator, got {kind}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            channel_apply(np.zeros(shape), ModemConfig(noise_sigma=0.5), streams)


class TestDemodulate:
    def test_noiseless_inverse_on_frame(self):
        bits = serialize(CodecFrame(WatchMode.SYNC, 7, 700, 77))
        assert demodulate(channel_apply(modulate(bits), CLEAN)) == bits

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=48))
    def test_noiseless_inverse_random_bits(self, bits):
        assert demodulate(modulate(bits)) == bytes(bits)

    def test_all_zero_waveform_decodes_to_zeros(self):
        # energy tie at both tones resolves to bit 0
        wave = np.zeros(5 * SAMPLES_PER_BIT)
        assert demodulate(wave) == bytes(5)

    def test_length_must_divide_samples_per_bit(self):
        with pytest.raises(ValueError):
            demodulate(np.zeros(17))

    @pytest.mark.parametrize(
        "shape, message",
        [((17,), "waveform length 17 "), ((3, 17), "waveform row length 17 ")],
    )
    def test_length_error_names_the_row_length(self, shape, message):
        # a (3, 17) block holds 51 samples, but each row is what must divide
        with pytest.raises(ValueError, match=f"^{message}not divisible by {SAMPLES_PER_BIT}"):
            demodulate(np.zeros(shape))

    def test_scalar_waveform_rejected(self):
        with pytest.raises(ValueError):
            demodulate(1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(SAMPLES_PER_BIT,), (3, 2 * SAMPLES_PER_BIT)])
    def test_non_finite_samples_rejected(self, shape, value):
        # NaN energies compare False, which would decode the bit as a 0
        wave = np.zeros(shape)
        wave[(0,) * len(shape)] = value
        with pytest.raises(ValueError, match="finite"):
            demodulate(wave)

    def test_empty_waveform(self):
        assert demodulate(np.zeros(0)) == b""

    @pytest.mark.parametrize("shape", [(0, 8), (0, 0), (0, 16)])
    def test_empty_block(self, shape):
        # a block of no rows of `shape[1]` bits decodes to no rows of bits
        bits = demodulate(np.zeros((0, shape[1] * SAMPLES_PER_BIT)))
        assert bits.shape == shape and bits.dtype == np.uint8

    def test_survives_strong_attenuation(self):
        cfg = ModemConfig(channel_attenuation=0.01)
        bits = [1, 0, 0, 1, 1, 1, 0]
        assert demodulate(channel_apply(modulate(bits), cfg)) == bytes(bits)


class TestMeasureBer:
    def test_zero_noise_zero_errors(self):
        assert measure_ber(ModemConfig(seed=5), 2000) == 0.0

    def test_deterministic_in_seed(self):
        cfg = ModemConfig(noise_sigma=1.5, seed=11)
        assert measure_ber(cfg, 4000) == measure_ber(cfg, 4000)

    def test_huge_noise_approaches_coin_flip(self):
        cfg = ModemConfig(noise_sigma=1e6, seed=1)
        rate = measure_ber(cfg, 10_000)
        assert abs(rate - 0.5) < 0.05

    def test_rate_non_decreasing_in_noise(self):
        rates = [
            measure_ber(ModemConfig(noise_sigma=s, seed=3), 10_000)
            for s in SWEEP_SIGMAS
        ]
        assert rates == sorted(rates)

    def test_20db_snr_under_1e3(self):
        # the sigma at which the unit tone's power (1/2) over the noise power
        # is 20 dB
        sigma = math.sqrt(0.5 / 10 ** (20.0 / 10))
        assert math.isclose(sigma, math.sqrt(0.005))
        rate = measure_ber(ModemConfig(noise_sigma=sigma, seed=1), 10_000)
        assert rate < 1e-3

    def test_n_bits_validated(self):
        with pytest.raises(ValueError):
            measure_ber(CLEAN, 0)

    @pytest.mark.parametrize(
        "n_bits",
        [1, BER_BLOCK_BITS - 1, BER_BLOCK_BITS, BER_BLOCK_BITS + 1, 3 * BER_BLOCK_BITS + 7, 50_000],
    )
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    @pytest.mark.parametrize("sigma", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("attenuation", [1.0, 0.6])
    def test_blocks_equal_the_whole_row(self, n_bits, seed, sigma, attenuation):
        cfg = ModemConfig(noise_sigma=sigma, channel_attenuation=attenuation, seed=seed)
        assert measure_ber(cfg, n_bits) == whole_row_ber(cfg, n_bits)

    @pytest.mark.parametrize("sigma", [0.6, 0.8, 1.0, 1.5, 2.0])
    def test_matches_noncoherent_bfsk_rate(self, sigma):
        n = 400_000
        p = bfsk_ber(sigma)
        rate = measure_ber(ModemConfig(noise_sigma=sigma, seed=2017), n)
        z = (rate - p) / math.sqrt(p * (1 - p) / n)
        assert abs(z) < 3, f"rate {rate} vs {p:.6g}: z={z:.2f}"


class TestFrameBlocks:
    """A 2-D call is n single-frame calls, row i using noise seed seed + i."""

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 2])
    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    def test_rows_equal_single_frame_calls(self, seed, sigma):
        cfg = ModemConfig(noise_sigma=sigma, seed=seed)
        rng = np.random.default_rng(seed % 1000)
        block = rng.integers(0, 2, (5, 48))
        waves = modulate(block)
        rx = channel_apply(waves, cfg)
        decided = demodulate(rx)
        assert waves.shape == rx.shape == (5, 48 * SAMPLES_PER_BIT)
        assert decided.shape == (5, 48)
        for i, bits in enumerate(block):
            hop = replace(cfg, seed=(seed + i) % 2**64)
            wave = modulate(list(bits))
            np.testing.assert_array_equal(waves[i], wave)
            np.testing.assert_array_equal(rx[i], channel_apply(wave, hop))
            assert decided[i].tobytes() == demodulate(channel_apply(wave, hop))

    def test_noise_draws_match_the_normal_stream(self):
        # the per-row stream is exactly default_rng(seed + i).normal(0, sigma)
        cfg = ModemConfig(noise_sigma=0.7, seed=41)
        out = channel_apply(np.zeros((2, 32)), cfg)
        for i in range(2):
            expected = np.random.default_rng(41 + i).normal(0.0, 0.7, 32)
            np.testing.assert_array_equal(out[i], expected)


def whole_row_sends(bits, cfg, gate):
    """_send_gated's result from one whole-row call per row, row i with
    noise seed cfg.seed + i, kept when its first `gate` bits decode as sent."""
    rows, received = [], []
    for i, row in enumerate(bits):
        hop = replace(cfg, seed=(cfg.seed + i) % 2**64)
        rx = np.frombuffer(demodulate(channel_apply(modulate(row), hop)), np.uint8)
        if (rx[:gate] == row[:gate]).all():
            rows.append(i)
            received.append(rx)
    return rows, received


class TestGatedSend:
    """_send_gated keeps exactly the rows whose gate bits survive one
    whole-row call, with that call's bits, however the rows are blocked."""

    @pytest.mark.parametrize("gate", [0, 8, 47, 48])
    @pytest.mark.parametrize("seed", [0, 2**64 - 100])
    @pytest.mark.parametrize("sigma", [0.0, 0.8, 1.5])
    def test_kept_rows_equal_whole_row_calls(self, gate, seed, sigma):
        # 200 rows span three blocks, and at sigma 1.5 most gates fail
        cfg = ModemConfig(noise_sigma=sigma, channel_attenuation=0.8, seed=seed)
        bits = np.random.default_rng(seed % 97).integers(0, 2, (200, 48), dtype=np.uint8)
        rows, received = _send_gated(bits, cfg, gate)
        want_rows, want_received = whole_row_sends(bits, cfg, gate)
        assert rows.tolist() == want_rows
        assert received.dtype == np.uint8 and received.shape == (len(want_rows), 48)
        np.testing.assert_array_equal(received, np.reshape(want_received, (-1, 48)))

    @pytest.mark.parametrize("samples", [SAMPLES_PER_BIT, 768, 3 * 768 - 1, 10**7])
    def test_outputs_do_not_depend_on_the_block_budget(self, monkeypatch, samples):
        # from one row (or one bit) per block to the whole send in one block
        bits = np.random.default_rng(3).integers(0, 2, (150, 48))
        cfg = ModemConfig(noise_sigma=1.0, seed=11)
        want = _send_gated(bits, cfg, 8), measure_ber(cfg, 2 * 4096 + 5)
        monkeypatch.setattr("wristlink.modem.BLOCK_SAMPLES", samples)
        (rows, received), rate = _send_gated(bits, cfg, 8), measure_ber(cfg, 2 * 4096 + 5)
        np.testing.assert_array_equal(rows, want[0][0])
        np.testing.assert_array_equal(received, want[0][1])
        assert rate == want[1]

    def test_one_row_and_no_rows(self):
        rows, received = _send_gated(np.zeros((0, 48), np.uint8), NOISY, 8)
        assert rows.shape == (0,) and received.shape == (0, 48)


class TestNoiselessTable:
    """At sigma 0 every bit of one value receives the same samples and each
    window is decided alone, so the decisions for the two one-bit rows
    decide every block: the radio path's sigma-0 shortcut."""

    # 1e-160 and 1e-162 leave the tone energy subnormal, 2e-163 leaves it
    # one subnormal step, and below that every window's energies tie at 0
    @pytest.mark.parametrize(
        "attenuation", [1.0, 0.5, 1e-3, 1e-160, 1e-162, 2e-163, 1e-170, 5e-324]
    )
    @pytest.mark.parametrize("n_frames", [1, 2, 63, 64, 65, 300])
    def test_table_equals_the_waveform_path(self, attenuation, n_frames):
        cfg = ModemConfig(channel_attenuation=attenuation, seed=n_frames)
        decide = demodulate(channel_apply(modulate([[0], [1]]), cfg))[:, 0]
        tx = np.random.default_rng(n_frames).integers(0, 2, (n_frames, 48), dtype=np.uint8)
        rx = demodulate(channel_apply(modulate(tx), cfg))
        assert rx.dtype == decide.dtype == np.uint8
        np.testing.assert_array_equal(decide[tx], rx)

    def test_table_reads_zero_for_both_values_under_underflow(self):
        cfg = ModemConfig(channel_attenuation=1e-170)
        assert demodulate(channel_apply(modulate([[0], [1]]), cfg)).tolist() == [[0], [0]]


# seeds at the edges of the one- and two-word SeedSequence entropy forms
BOUNDARY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1)


class TestBlockSeeding:
    """The rows' seed words are hashed in one pass, as SeedSequence would."""

    def test_seed_words_equal_seed_sequence(self):
        rng = np.random.default_rng(2017)
        # random seeds of every width, so one- and two-word entropy both occur
        full = rng.integers(0, 2**64, 2000, dtype=np.uint64)
        shifted = full >> rng.integers(0, 64, 2000).astype(np.uint64)
        seeds = [*BOUNDARY_SEEDS, *shifted.tolist()]
        words = _seed_state_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        for s, row in zip(seeds, words):
            expected = np.random.SeedSequence(s).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expected, err_msg=f"seed {s}")

    @pytest.mark.parametrize("seed", [2**32 - 3, 2**64 - 3])
    def test_rows_equal_default_rng_across_word_boundaries(self, seed):
        # rows 0..5 cross 2**32 (one entropy word to two) or wrap past 2**64
        cfg = ModemConfig(noise_sigma=0.9, seed=seed)
        out = channel_apply(np.zeros((6, 40)), cfg)
        for i in range(6):
            rng = np.random.default_rng((seed + i) % 2**64)
            np.testing.assert_array_equal(out[i], rng.standard_normal(40) * 0.9)

    def test_import_does_not_load_numpy_random(self):
        # numpy.random is imported on the first noisy channel_apply, so the
        # package import costs no more than numpy's own; numpy releases
        # before 2.0 load numpy.random with numpy itself
        src = str(Path(wristlink.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

        def loads_numpy_random(module):
            code = f"import sys, {module}; print('numpy.random' in sys.modules)"
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True,
            )
            return proc.stdout.strip() == "True"

        assert loads_numpy_random("wristlink") == loads_numpy_random("numpy")


RADIO_STAGES = {
    "modulate": ("bits", modulate),
    "channel_apply": ("waveform", lambda v: channel_apply(v, NOISY)),
    "demodulate": ("waveform", demodulate),
    "deserialize": ("bits", deserialize),
}


@pytest.mark.parametrize("stage", RADIO_STAGES)
@pytest.mark.parametrize(
    "value, shape",
    [
        (1, ()),
        (np.array(1), ()),
        (np.zeros((2, 2, 48), dtype=np.uint8), (2, 2, 48)),
        ([[[0] * 16]], (1, 1, 16)),
    ],
    ids=["scalar", "0d_array", "3d_array", "3d_list"],
)
def test_rank_rule(stage, value, shape):
    # each stage of the radio path takes one row (1-D) or a block of rows
    # (2-D); any other rank is named with its shape, never read as a row,
    # and a scalar waveform no longer comes back as one noisy scalar
    name, call = RADIO_STAGES[stage]
    message = f"{name} must be a 1-D row or a 2-D block, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("stage", ["channel_apply", "demodulate"])
@pytest.mark.parametrize(
    "value, dtype",
    [
        (np.zeros(16, complex), "complex128"),
        (np.zeros((2, 16), np.complex64), "complex64"),
        (["0.5"] * 16, "<U3"),
        (np.full(16, 0.5, dtype=object), "object"),
    ],
    ids=["complex", "complex_block", "string", "object"],
)
def test_waveform_must_be_real(stage, value, dtype):
    # a waveform is cast to float only from a real dtype: never by dropping
    # an imaginary part or parsing strings or objects
    name, call = RADIO_STAGES[stage]
    message = f"{name} must hold real numbers, got dtype {dtype}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [[0] * 16, [False] * 16, np.zeros(16, np.float32)])
def test_real_waveform_dtypes_read_as_float64(value):
    assert channel_apply(value, CLEAN).dtype == np.float64
    assert demodulate(value) == bytes([0])
