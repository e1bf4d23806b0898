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
gives exactly what n single-frame calls with those seeds give.
`modulate(phase=)` and `channel_apply(rng=)` instead carry a transmission's
phase and noise stream across calls, which is how measure_ber sends one long
row in fixed-size blocks. The phase carry keeps a running phase sum instead
of the table, only for measure_ber: ber.csv's bytes depend on its rounding
drift (up to ~5e-5 rad over a 200k-bit row); the benchmark sweep's seed-0
row at sigma 2 reads 0.303365, and would read 0.30337 from the table.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sensor import check_int, check_rows, check_seed

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

# bits per block of a measure_ber transmission: 65,536 samples (512 KiB of
# float64)
BER_BLOCK_BITS = 4096


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..n, as uint32."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# numpy.random.SeedSequence's uint32 hash (numpy/random/bit_generator.pyx).
# Its hash constant advances on every call whatever the data, so the
# sequence is fixed: mixing the 4-word entropy pool takes 4 + 4 * 3 hashmix
# calls, and generate_state(4, np.uint64) draws 8 uint32 words.
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _seed_state_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for every uint64 seed s.

    Returns a C-contiguous (n, 4) uint64 array, one row per seed, computed
    with array operations instead of one SeedSequence per seed. A seed below
    2**32 is one entropy word and a larger one two, but SeedSequence hashes
    a missing pool word exactly as a zero word, so every seed is hashed as
    the pool (low 32 bits, high 32 bits, 0, 0).
    """
    c = _MIX_CONSTANTS
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = (seeds & 0xFFFFFFFF).astype(np.uint32)
    pool[1] = (seeds >> 32).astype(np.uint32)
    # hashmix(v) with constants k, k + 1: v ^= c[k]; v *= c[k + 1]; v ^= v >> 16
    pool ^= c[:4, None]
    pool *= c[1:5, None]
    pool ^= pool >> 16
    # then each word is mixed into the other three, in order; the three
    # updates of one source word read only it and their own word, so they
    # run as one (3, n) step with hash constants k, k + 1, k + 2
    for src in range(4):
        k = 4 + 3 * src
        dst = [d for d in range(4) if d != src]
        h = pool[src] ^ c[k : k + 3, None]
        h *= c[k + 1 : k + 4, None]
        h ^= h >> 16
        # mix(x, y) = (L * x - R * y) ^ ((L * x - R * y) >> 16)
        mixed = pool[dst] * _MIX_MULT_L
        mixed -= h * _MIX_MULT_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = pool[[0, 1, 2, 3, 0, 1, 2, 3]]
    state ^= _STATE_CONSTANTS[:8, None]
    state *= _STATE_CONSTANTS[1:, None]
    state ^= state >> 16
    # uint32 words 2j and 2j + 1 are the low and high halves of uint64 word j
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


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


@dataclass(frozen=True)
class ModemConfig:
    channel_attenuation: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("channel_attenuation", "noise_sigma"):
            value = getattr(self, name)
            # a bool is an int subclass but not a channel quantity
            if isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0 < self.channel_attenuation <= 1:
            raise ValueError("channel_attenuation must lie in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        check_seed(self.seed)


def noise_sigma_for_snr_db(snr_db: float) -> float:
    """Noise sigma at which the unit tone's power (1/2) over noise power
    equals the given SNR."""
    return math.sqrt(0.5 / 10 ** (snr_db / 10))


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
        return _TONES.take(bits.astype(np.intp), axis=0).reshape(*bits.shape[:-1], -1)
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
    hashed in one pass (_seed_state_words), so no SeedSequence is built per
    row. Given a Generator `rng`, the rows instead draw from it in order, so
    a waveform sent in pieces with one generator gets exactly the noise of
    one draw over the whole.
    """
    out = check_rows("waveform", waveform, float) * cfg.channel_attenuation
    if cfg.noise_sigma > 0 and out.size:
        noise = np.empty_like(out)
        if rng is not None:
            rng.standard_normal(out=noise)
        else:
            from numpy.random import PCG64, Generator

            rows = noise.reshape(-1, out.shape[-1])
            seeds = np.uint64(cfg.seed) + np.arange(len(rows), dtype=np.uint64)
            state_words = _state_words_type()
            # default_rng(s) is Generator(PCG64(SeedSequence(s)))
            for row, words in zip(rows, _seed_state_words(seeds)):
                Generator(PCG64(state_words(words))).standard_normal(out=row)
        noise *= cfg.noise_sigma
        out += noise
    return out


def demodulate(waveform):
    """Decide each bit by comparing single-bin tone energies at F0 and F1.

    The last axis of the waveform must be a multiple of SAMPLES_PER_BIT, and
    every sample finite. A tie in energy (including an all-zero window)
    decodes as 0. A 1-D waveform gives a list of ints; a 2-D one gives a
    uint8 array with one row of bits per waveform row.
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
    bits = bits.reshape(*wave.shape[:-1], -1)
    return bits if wave.ndim == 2 else bits.tolist()


def measure_ber(cfg: ModemConfig, n_bits: int) -> float:
    """Bit error rate of modulate -> channel -> demodulate on random bits.

    Deterministic in cfg.seed: the bit stream and the channel noise use
    independent substreams derived from it. The bits are one transmission,
    sent in blocks of BER_BLOCK_BITS that carry the phase sum and the noise
    generator from block to block, so the rate is exactly that of one call
    over the whole row while memory stays bounded by the block size.
    """
    check_int("n_bits", n_bits, 1)
    bit_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    bit_rng = np.random.default_rng(bit_ss)
    # the generator a one-row channel_apply call would seed for row 0
    noise_rng = np.random.default_rng(int(noise_ss.generate_state(1, np.uint64)[0]))
    phase = np.zeros(1)
    errors = 0
    for start in range(0, n_bits, BER_BLOCK_BITS):
        bits = bit_rng.integers(0, 2, (1, min(BER_BLOCK_BITS, n_bits - start)))
        rx = channel_apply(modulate(bits, phase), cfg, noise_rng)
        errors += int(np.count_nonzero(demodulate(rx) != bits))
    return errors / n_bits
