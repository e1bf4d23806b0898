"""wristlink: deterministic desk-scale simulator of a wrist-wearable gesture
control pipeline.

A wearable's 3-axis accelerometer stream passes through a 48-bit frame codec
with an FSK waveform channel, a half-duplex access-point protocol with
Bernoulli loss, a windowed-mean gesture classifier with debounce, and a
PIR-gated appliance controller. Every stage is seeded and pure, so runs are
reproducible byte for byte.

Importing the package loads none of its submodules: each public name loads
the submodule that defines it on first use (PEP 562).
"""
import importlib

__version__ = "0.1.0"

# each public name, and the submodule that defines it
_OWNER = {
    "Action": "classify",
    "CalibrationError": "classify",
    "CalibrationProfile": "classify",
    "Debouncer": "classify",
    "ProfileError": "classify",
    "calibrate": "classify",
    "classify_window": "classify",
    "classify_windows": "classify",
    "debounced_stream": "classify",
    "load_profile": "classify",
    "save_profile": "classify",
    "window_mean": "classify",
    "HomeController": "controller",
    "PipelineResult": "controller",
    "run_pipeline": "controller",
    "demo_csv_path": "demo",
    "demo_trace": "demo",
    "CodecFrame": "framing",
    "CrcMismatchError": "framing",
    "DecodeError": "framing",
    "SyncMismatchError": "framing",
    "WatchMode": "framing",
    "deserialize": "framing",
    "serialize": "framing",
    "ACQUIRING_MESSAGE": "link",
    "AP_STARTED_MESSAGE": "link",
    "AccessPointState": "link",
    "EventKind": "link",
    "LinkBlock": "link",
    "LinkConfig": "link",
    "LinkSimulator": "link",
    "ProtocolError": "link",
    "ModemConfig": "modem",
    "channel_apply": "modem",
    "demodulate": "modem",
    "measure_ber": "modem",
    "modulate": "modem",
    "AccelSample": "sensor",
    "GestureKind": "sensor",
    "Trace": "sensor",
    "TraceFormatError": "sensor",
    "generate_gesture": "sensor",
    "load_trace": "sensor",
    "save_trace": "sensor",
}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
