"""Binary FSK modem over an abstract attenuating, noisy channel.

Bits map to tones (0 -> f0, 1 -> f1) with phase kept continuous across bit
boundaries. Detection is non-coherent: each bit window is correlated against
a single-bin discrete-frequency probe at each tone frequency and the larger
energy wins, ties decoding as 0. The defaults (f0 1 kHz, f1 2 kHz, 16 kHz
sampling, 16 samples per bit) place a whole number of cycles of either tone
in every bit window, so the probes are exactly orthogonal on clean input.

The channel is a scalar gain plus seeded additive white Gaussian noise;
every operation here is a pure function of its arguments.

Every stage takes an optional leading frame axis. A 1-D bit sequence or
waveform is one transmission; a 2-D array holds one frame per row, and each
row is its own transmission: its phase starts at 0, and row i draws its
noise from the generator seeded with (seed + i) mod 2**64, so a block of n
frames gives exactly what n single-frame calls with those seeds give.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ModemConfig:
    f0: float = 1000.0
    f1: float = 2000.0
    sample_rate: float = 16000.0
    samples_per_bit: int = 16
    channel_attenuation: float = 1.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("f0", "f1", "sample_rate", "channel_attenuation", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.f0 == self.f1:
            raise ValueError("f0 and f1 must differ")
        nyquist = self.sample_rate / 2
        for name in ("f0", "f1"):
            f = getattr(self, name)
            if not 0 < f < nyquist:
                raise ValueError(f"{name}={f} must lie in (0, sample_rate/2)")
        if self.samples_per_bit < 4:
            raise ValueError(f"samples_per_bit must be >= 4, got {self.samples_per_bit}")
        if not 0 < self.channel_attenuation <= 1:
            raise ValueError("channel_attenuation must lie in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


def noise_sigma_for_snr_db(snr_db: float, amplitude: float = 1.0) -> float:
    """Noise sigma at which tone power (amplitude^2 / 2) over noise power
    equals the given SNR."""
    return math.sqrt((amplitude**2 / 2) / 10 ** (snr_db / 10))


def modulate(bits, cfg: ModemConfig) -> np.ndarray:
    """Emit a unit-amplitude continuous-phase FSK waveform for bit sequences.

    The waveform is samples_per_bit times as long as the last axis of
    `bits`; along that axis the phase starts at 0 and advances by
    2*pi*f/sample_rate per sample, where f follows the bit value.
    """
    bits = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits))
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bit sequence must contain only 0 and 1")
    inc0 = 2.0 * np.pi * cfg.f0 / cfg.sample_rate
    inc1 = 2.0 * np.pi * cfg.f1 / cfg.sample_rate
    inc = np.repeat(np.where(bits == 1, inc1, inc0), cfg.samples_per_bit, axis=-1)
    phase = np.cumsum(inc, axis=-1)
    phase -= inc  # exclusive prefix sum: first sample at phase 0
    return np.sin(phase, out=phase)


def channel_apply(waveform, cfg: ModemConfig) -> np.ndarray:
    """Scale by channel_attenuation and add seeded zero-mean Gaussian noise.

    Row i of a 2-D waveform (the whole of a 1-D one, as row 0) draws its
    noise from default_rng((seed + i) % 2**64).
    """
    out = np.asarray(waveform, dtype=float) * cfg.channel_attenuation
    if cfg.noise_sigma > 0 and out.size:
        noise = np.empty_like(out)
        for i, row in enumerate(noise.reshape(-1, out.shape[-1] if out.ndim else 1)):
            np.random.default_rng((cfg.seed + i) % 2**64).standard_normal(out=row)
        noise *= cfg.noise_sigma
        out += noise
    return out


def _tone_probes(cfg: ModemConfig) -> np.ndarray:
    """(samples_per_bit, 4) real and imaginary parts of the f0 and f1 probes."""
    n = np.arange(cfg.samples_per_bit)
    probes = [np.exp(-2j * np.pi * f * n / cfg.sample_rate) for f in (cfg.f0, cfg.f1)]
    return np.stack([part for p in probes for part in (p.real, p.imag)], axis=1)


def demodulate(waveform, cfg: ModemConfig):
    """Decide each bit by comparing single-bin tone energies at f0 and f1.

    The last axis of the waveform must be a multiple of samples_per_bit. A
    tie in energy (including an all-zero window) decodes as 0. A 1-D
    waveform gives a list of ints; a 2-D one gives a uint8 array with one
    row of bits per waveform row.
    """
    wave = np.asarray(waveform, dtype=float)
    spb = cfg.samples_per_bit
    if wave.ndim == 0 or wave.shape[-1] % spb:
        raise ValueError(
            f"waveform length {wave.size} not divisible by samples_per_bit {spb}"
        )
    energy = np.square(wave.reshape(-1, spb) @ _tone_probes(cfg))
    bits = (energy[:, 2] + energy[:, 3] > energy[:, 0] + energy[:, 1]).view(np.uint8)
    bits = bits.reshape(*wave.shape[:-1], -1)
    return bits if wave.ndim == 2 else bits.tolist()


def measure_ber(cfg: ModemConfig, n_bits: int) -> float:
    """Bit error rate of modulate -> channel -> demodulate on random bits.

    Deterministic in cfg.seed: the bit stream and the channel noise use
    independent substreams derived from it.
    """
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    bit_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    # one transmission, sent as a one-row block so that bits stay an array
    bits = np.random.default_rng(bit_ss).integers(0, 2, (1, n_bits))
    noise_cfg = replace(cfg, seed=int(noise_ss.generate_state(1, np.uint64)[0]))
    rx = channel_apply(modulate(bits, cfg), noise_cfg)
    return float(np.mean(demodulate(rx, cfg) != bits))
