//! Dynamic race detectors for the BigFoot reproduction.
//!
//! Implements every detector from the paper's evaluation (Fig. 2) over the
//! BFJ interpreter's event stream — FastTrack, RedCard, SlimState,
//! SlimCard, and BigFoot's run time (DynamicBF) — as [`Config`]urations of
//! one engine, plus the dynamic precise-checks verifier of §5. The engine
//! runs serially as a [`Detector`] or over a recorded trace with
//! [`replay_trace`] / [`replay_compressed`].
//!
//! See [`Detector`] for the configuration matrix and usage.

mod creplay;
mod detector;
mod djit;
mod engine;
mod precision;
mod replay;
mod stats;
mod store;
mod sync;

pub use creplay::{replay_compressed, replay_compressed_report, CompressedReplayReport};
pub use detector::Detector;
pub use djit::{DjitDetector, DjitState};
pub use engine::{ArrayEngine, CheckSource, Config, ProxyTable};
pub use precision::{verify_precise_checks, PrecisionError};
pub use replay::{replay_trace, TraceReader, SHARDS};
pub use stats::{CoarseTarget, Race, RaceTarget, Stats};
pub use sync::SyncClocks;
