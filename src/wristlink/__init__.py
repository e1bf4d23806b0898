"""wristlink: deterministic desk-scale simulator of a wrist-wearable gesture
control pipeline.

A wearable's 3-axis accelerometer stream passes through a 48-bit frame codec
with an FSK waveform channel, a half-duplex access-point protocol with
Bernoulli loss, a windowed-mean gesture classifier with debounce, and a
PIR-gated appliance controller. Every stage is seeded and pure, so runs are
reproducible byte for byte.
"""
from .classify import (
    Action,
    CalibrationError,
    CalibrationProfile,
    Debouncer,
    ProfileError,
    calibrate,
    classify_window,
    classify_windows,
    debounced_stream,
    load_profile,
    save_profile,
    window_mean,
)
from .controller import HomeController, PipelineResult, run_pipeline
from .demo import demo_csv_path, demo_trace
from .framing import (
    CodecFrame,
    CrcMismatchError,
    DecodeError,
    SyncMismatchError,
    WatchMode,
    deserialize,
    serialize,
)
from .link import (
    ACQUIRING_MESSAGE,
    AP_STARTED_MESSAGE,
    AccessPointState,
    EventKind,
    LinkConfig,
    LinkEvent,
    LinkSimulator,
    ProtocolError,
)
from .modem import (
    ModemConfig,
    channel_apply,
    demodulate,
    measure_ber,
    modulate,
    noise_sigma_for_snr_db,
)
from .sensor import (
    AccelSample,
    GestureKind,
    Trace,
    TraceFormatError,
    generate_gesture,
    load_trace,
    save_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AccelSample",
    "AccessPointState",
    "Action",
    "ACQUIRING_MESSAGE",
    "AP_STARTED_MESSAGE",
    "CalibrationError",
    "CalibrationProfile",
    "CodecFrame",
    "CrcMismatchError",
    "Debouncer",
    "DecodeError",
    "EventKind",
    "GestureKind",
    "HomeController",
    "LinkConfig",
    "LinkEvent",
    "LinkSimulator",
    "ModemConfig",
    "PipelineResult",
    "ProfileError",
    "ProtocolError",
    "SyncMismatchError",
    "Trace",
    "TraceFormatError",
    "WatchMode",
    "calibrate",
    "channel_apply",
    "classify_window",
    "classify_windows",
    "debounced_stream",
    "demo_csv_path",
    "demo_trace",
    "demodulate",
    "deserialize",
    "generate_gesture",
    "load_profile",
    "load_trace",
    "measure_ber",
    "modulate",
    "noise_sigma_for_snr_db",
    "run_pipeline",
    "save_profile",
    "save_trace",
    "serialize",
    "window_mean",
]
