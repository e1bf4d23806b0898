"""Binary FSK modem over an abstract attenuating, noisy channel.

Bits map to tones (0 -> F0, 1 -> F1) with phase kept continuous across bit
boundaries. Detection is non-coherent: each bit window is correlated against
a single-bin discrete-frequency probe at each tone frequency and the larger
energy wins, ties decoding as 0. Each window is decided alone, from its own
SAMPLES_PER_BIT samples. The fixed tones (F0 1 kHz, F1 2 kHz at 16
kHz SAMPLE_RATE) and the fixed SAMPLES_PER_BIT of 16 place a whole number of
cycles of either tone in every bit window, so the probes are exactly
orthogonal on clean input, and every bit starts at phase 0: a row's
waveform is a gather from a (2, SAMPLES_PER_BIT) table of the two tones.

The channel is a scalar gain plus seeded additive white Gaussian noise;
every operation here is a pure function of its arguments.

Every stage takes an optional leading frame axis, and no other: a 1-D bit
sequence or waveform is one transmission, a 2-D array holds one frame per
row, and any other rank raises ValueError (sensor.check_rows). Each row is
its own transmission: its phase starts at 0, and row i draws its noise from
the generator seeded with (seed + i) mod 2**64, so a block of n frames
gives exactly what n single-frame calls with those seeds give. The rows'
seeds are hashed _HASH_SEEDS at a time by NumPy's SeedSequence hash,
transliterated from numpy/random/bit_generator.pyx to run over an array of
seeds.

`modulate(phase=)` and `channel_apply(rng=)` instead carry a transmission's
phase and noise stream across calls. The rng is a list of one generator per
row, which row i continues: that is how measure_ber sends one long row in
blocks, and how _send_gated sends each row's first bits and then, only if
those survived, the rest of it; both bound a block by BLOCK_SAMPLES
waveform samples. The phase carry keeps a running phase sum instead of
the table, only for measure_ber: ber.csv's bytes depend on its rounding
drift (up to ~5e-5 rad over a 200k-bit row); the benchmark sweep's seed-0
row at sigma 2 reads 0.303365, and would read 0.30337 from the table.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .sensor import check_int, check_number, check_rows, check_seed, check_type

# the tone plan, in Hz
F0 = 1000.0
F1 = 2000.0
SAMPLE_RATE = 16000.0
SAMPLES_PER_BIT = 16

# phase advance per sample of the F0 and F1 tones
_INC0, _INC1 = 2.0 * np.pi * np.array([F0, F1]) / SAMPLE_RATE
# one bit's window of the F0 tone (row 0) and of the F1 tone (row 1), each
# from phase 0
_TONES = np.sin(np.arange(SAMPLES_PER_BIT) * np.array([[_INC0], [_INC1]]))
# the single-bin F0 and F1 probes over one bit window, and their real and
# imaginary parts as the (SAMPLES_PER_BIT, 4) matrix that demodulate applies
_F0_PROBE, _F1_PROBE = np.exp(
    -2j * np.pi * np.array([[F0], [F1]]) * np.arange(SAMPLES_PER_BIT) / SAMPLE_RATE
)
_PROBES = np.stack([_F0_PROBE.real, _F0_PROBE.imag, _F1_PROBE.real, _F1_PROBE.imag], axis=1)

# float64 waveform samples per block (512 KiB) of a transmission sent in
# blocks, from which measure_ber derives its bits and _send_gated its rows
# per block. Outputs do not depend on it, but peak memory grows with it (a
# block is held in a few copies).
BLOCK_SAMPLES = 65536
# seeds per _seed_state_words call: its temporaries take ~130 bytes a seed,
# so this bounds them to about one block, whatever the number of rows
_HASH_SEEDS = 4096


def _seed_state_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    Returns a C-contiguous (n, 4) uint64 array, one row per seed. The body
    transliterates SeedSequence.mix_entropy and generate_state from
    numpy/random/bit_generator.pyx, run over uint32 arrays of one entry per
    seed instead of one SeedSequence per seed. A seed below 2**32 is one
    entropy word and a larger one two, but mix_entropy hashes a missing pool
    word exactly as a zero word, so every seed is hashed as the entropy
    (low 32 bits, high 32 bits, 0, 0).
    """
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * 0x931E8875 & 0xFFFFFFFF  # MULT_A
        value *= np.uint32(hash_const)
        return value ^ value >> 16  # XSHIFT

    def mix(x, y):
        result = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)  # MIX_MULT_L, _R
        return result ^ result >> 16

    low, high = seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)
    mixer = [hashmix(word) for word in (low, high, *np.zeros((2, seeds.size), np.uint32))]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    # generate_state(4, np.uint64): 8 uint32 words from the cycled pool, and
    # words 2j and 2j + 1 the low and high halves of uint64 word j
    state = np.empty((seeds.size, 8), dtype=np.uint32)
    hash_const = 0x8B51F9DD  # INIT_B
    for i_dst in range(8):
        data_val = mixer[i_dst % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * 0x58F38DED & 0xFFFFFFFF  # MULT_B
        data_val *= np.uint32(hash_const)
        state[:, i_dst] = data_val ^ data_val >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _row_seed_words(seed: int, n: int) -> np.ndarray:
    """The seed words of rows 0..n - 1 of a channel_apply call under `seed`:
    row i's are those of (seed + i) mod 2**64, hashed _HASH_SEEDS rows at a
    time."""
    words = np.empty((n, 4), dtype=np.uint64)
    for start in range(0, n, _HASH_SEEDS):
        seeds = np.uint64(seed) + np.arange(start, min(start + _HASH_SEEDS, n), dtype=np.uint64)
        words[start : start + len(seeds)] = _seed_state_words(seeds)
    return words


def _row_generators(words: np.ndarray) -> list:
    """default_rng(s) for each row of seed words that _seed_state_words gave
    for s, built without a SeedSequence: default_rng(s) is
    Generator(PCG64(SeedSequence(s)))."""
    from numpy.random import PCG64, Generator

    state_words = _state_words_type()
    return [Generator(PCG64(state_words(row))) for row in words]


@functools.cache
def _state_words_type():
    """The seed sequence type that hands PCG64 precomputed state words.

    Defined on first use: its base class lives in numpy.random, which
    importing wristlink does not load.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for 4 uint64 words and seeds its 128-bit LCG from them
            return self.words

    return StateWords


# The largest noise sigma. NumPy's ziggurat standard_normal returns |n| <
# 13.8 (its tail draw is 3.654 - ln(u) / 3.654 with u >= 2**-53: 13.71), so
# a received sample, unit tone plus noise, has |w| < 14 sigma once sigma >=
# 5, demodulate's probe correlations over 16 samples |c| <= 224 sigma, and
# its sum of two tone energies 2 c**2 <= 100352 sigma**2: at most 0.39 of
# the float range at sqrt(float max) / 2**9, leaving room for rounding.
NOISE_SIGMA_MAX = float(np.sqrt(np.finfo(np.float64).max)) / 2**9


@dataclass(frozen=True)
class ModemConfig:
    channel_attenuation: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_number("channel_attenuation", self.channel_attenuation, 0, 1, above=True)
        check_number("noise_sigma", self.noise_sigma, 0, NOISE_SIGMA_MAX)
        check_seed(self.seed)


def modulate(bits, phase=None) -> np.ndarray:
    """Emit a unit-amplitude continuous-phase FSK waveform for bit sequences.

    The waveform is SAMPLES_PER_BIT times as long as the last axis of
    `bits`; along that axis the phase starts at 0 and advances by
    2*pi*f/SAMPLE_RATE per sample, where f follows the bit value. Each bit
    holds whole cycles of its tone, so every bit starts at phase 0 and,
    with no `phase` given, the waveform is a gather from the tone table
    _TONES.

    `phase`, when given, carries the phase sum from one call to the next: a
    float64 array of shape bits.shape[:-1] (one entry per row), added to the
    first sample's increment and advanced in place to the row's running sum,
    so a row sent in pieces with one carry array (starting at zeros) gives
    exactly the waveform of the whole row. That running sum drifts from the
    table by rounding (up to ~5e-5 rad over a 200k-bit row), and ber.csv's
    bytes depend on it: measure_ber is its only caller, and it goes with the
    versioned output v2 that re-records ber.csv (ROADMAP item 3).
    """
    bits = check_rows("bits", bits)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bit sequence must contain only 0 and 1")
    if phase is None:
        waves = _TONES.take(bits.astype(np.intp), axis=0)
        return waves.reshape(*bits.shape[:-1], bits.shape[-1] * SAMPLES_PER_BIT)
    if (
        not isinstance(phase, np.ndarray)
        or phase.dtype != np.float64
        or phase.shape != bits.shape[:-1]
    ):
        raise ValueError(f"phase must be a float64 array of shape {bits.shape[:-1]}")
    bit_inc = np.where(bits == 1, _INC1, _INC0)
    ph = np.repeat(bit_inc, SAMPLES_PER_BIT, axis=-1)
    if ph.shape[-1] == 0:
        return ph
    ph[..., 0] += phase
    np.cumsum(ph, axis=-1, out=ph)
    phase[...] = ph[..., -1]
    # exclusive prefix sum: each bit's first sample sits at the phase so far
    per_bit = ph.reshape(*bit_inc.shape, SAMPLES_PER_BIT)
    per_bit -= bit_inc[..., None]
    return np.sin(ph, out=ph)


def channel_apply(waveform, cfg: ModemConfig, rng=None) -> np.ndarray:
    """Scale by channel_attenuation and add seeded zero-mean Gaussian noise.

    Row i of a 2-D waveform (the whole of a 1-D one, as row 0) draws its
    noise from default_rng((seed + i) % 2**64); the rows' seed words are
    hashed in passes over arrays of seeds (_row_seed_words), so no
    SeedSequence is built per row. Given `rng`, a list with one Generator
    per row (any other entry raises ValueError naming it), row i instead
    continues rng[i]; a waveform sent in pieces then gets exactly the noise
    of one draw over the whole, as a generator's normals do not depend on
    how they are split into calls.
    """
    wave = check_rows("waveform", waveform, float)
    check_type("cfg", cfg, ModemConfig)
    n_rows = len(wave) if wave.ndim == 2 else 1
    if rng is not None:
        if not isinstance(rng, list) or len(rng) != n_rows:
            got = len(rng) if isinstance(rng, list) else type(rng).__name__
            raise ValueError(f"rng must hold one generator per row ({n_rows}), got {got}")
        if not all(map(isinstance, rng, repeat(np.random.Generator))):
            for i, gen in enumerate(rng):
                check_type(f"rng[{i}]", gen, np.random.Generator)
    a = cfg.channel_attenuation
    if cfg.noise_sigma == 0 or wave.size == 0:
        return wave * a
    if rng is None:
        rng = _row_generators(_row_seed_words(cfg.seed, n_rows))
    out = np.empty(wave.shape)
    for row, gen in zip(out.reshape(n_rows, -1), rng):
        gen.standard_normal(out=row)
    # each sample is fl(sigma * n) + fl(a * w); fl(1 * w) is w, so a == 1
    # needs no product
    out *= cfg.noise_sigma
    out += wave if a == 1 else wave * a
    return out


def demodulate(waveform):
    """Decide each bit by comparing single-bin tone energies at F0 and F1.

    The last axis of the waveform must be a multiple of SAMPLES_PER_BIT, and
    every sample finite. A tie in energy (including an all-zero window)
    decodes as 0. A 2-D waveform gives a uint8 array with one row of bits
    per waveform row; a 1-D one gives its one row's .tobytes(), bytes of 0/1
    values, the form framing.serialize gives one frame in.
    """
    wave = check_rows("waveform", waveform, float)
    if wave.shape[-1] % SAMPLES_PER_BIT:
        raise ValueError(
            f"waveform {'row ' if wave.ndim == 2 else ''}length {wave.shape[-1]}"
            f" not divisible by {SAMPLES_PER_BIT} samples per bit"
        )
    if not np.isfinite(wave).all():
        raise ValueError("waveform must be finite")
    energy = np.square(wave.reshape(-1, SAMPLES_PER_BIT) @ _PROBES)
    bits = (energy[:, 2] + energy[:, 3] > energy[:, 0] + energy[:, 1]).view(np.uint8)
    bits = bits.reshape(*wave.shape[:-1], wave.shape[-1] // SAMPLES_PER_BIT)
    return bits if wave.ndim == 2 else bits.tobytes()


def measure_ber(cfg: ModemConfig, n_bits: int) -> float:
    """Bit error rate of modulate -> channel -> demodulate on random bits.

    Deterministic in cfg.seed: the bit stream and the channel noise use
    independent substreams derived from it. The bits are one transmission,
    sent in blocks of BLOCK_SAMPLES waveform samples that carry the phase
    sum and the noise generator from block to block, so the rate is exactly
    that of one call over the whole row while memory stays bounded by the
    block size.
    """
    check_type("cfg", cfg, ModemConfig)
    check_int("n_bits", n_bits, 1)
    bit_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    bit_rng = np.random.default_rng(bit_ss)
    # the generator a one-row channel_apply call would seed for row 0
    noise_rng = np.random.default_rng(int(noise_ss.generate_state(1, np.uint64)[0]))
    phase = np.zeros(1)
    errors = 0
    step = BLOCK_SAMPLES // SAMPLES_PER_BIT
    for start in range(0, n_bits, step):
        bits = bit_rng.integers(0, 2, (1, min(step, n_bits - start)))
        rx = channel_apply(modulate(bits, phase), cfg, [noise_rng])
        errors += int(np.count_nonzero(demodulate(rx) != bits))
    return errors / n_bits


def _send_gated(bits: np.ndarray, cfg: ModemConfig, gate: int) -> tuple[np.ndarray, np.ndarray]:
    """Send each row of an (n, m) block of 0/1 bits as its own transmission,
    its first `gate` bits (0..m) first and the rest only if those decoded
    as sent. It checks nothing: its one caller, controller._receive, hands
    it serialize's uint8 block, SYNC_BITS and run_pipeline's ModemConfig,
    and each modulate, channel_apply and demodulate call checks its input.

    Row i draws its noise from the stream seeded (cfg.seed + i) mod 2**64,
    as in a channel_apply call over the whole block. The rows go in blocks
    of at most BLOCK_SAMPLES waveform samples (at least one row): the gate
    bits of every row of a block in one modulate -> channel_apply ->
    demodulate call, then the rest of each row whose gate bits decoded as
    sent, its noise continuing the row's own stream. demodulate decides
    each bit window alone, and a generator's normals do not depend on how
    they are split into calls, so a kept row decodes to exactly the bits a
    whole-row call gives it. Returns the kept rows' indices, ascending, and
    their (k, m) uint8 decoded bits, joined once from lists: an n-row buffer
    peaks higher (1.89x a noisy 102,000-sample simulate's log, not 1.69x).
    """
    n, width = bits.shape
    words = _row_seed_words(cfg.seed, n)
    step = max(1, BLOCK_SAMPLES // (SAMPLES_PER_BIT * max(width, 1)))
    rows, received = [np.zeros(0, np.intp)], [np.zeros((0, width), np.uint8)]
    for start in range(0, n, step):
        block = bits[start : start + step]
        streams = _row_generators(words[start : start + len(block)])
        head = demodulate(channel_apply(modulate(block[:, :gate]), cfg, streams))
        kept = np.flatnonzero((head == block[:, :gate]).all(axis=1))
        if kept.size:
            rest = modulate(block[kept, gate:])
            rest = demodulate(channel_apply(rest, cfg, [streams[i] for i in kept]))
            rows.append(start + kept)
            received.append(np.concatenate([head[kept], rest], axis=1))
    return np.concatenate(rows), np.concatenate(received)
