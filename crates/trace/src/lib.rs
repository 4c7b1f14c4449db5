//! Trace record/replay for the SPECRUN pipeline-event stream.
//!
//! Every artifact the lab emits is a *summary* — leak rates, fill counts,
//! invariant verdicts — while the ground truth behind them (the typed
//! [`PipelineEvent`] stream the observer API emits) evaporated at the end
//! of each run. This crate keeps it: the SPECULOSE move of capturing the
//! speculative execution trace once and analyzing it offline, in three
//! layers.
//!
//! * **Record** — [`RecordingObserver`] is a [`PipelineObserver`] that
//!   captures the live event stream; [`encode_events`] serializes it into
//!   a compact delta-encoded binary log (varint cycle deltas,
//!   per-event-kind tags, framed blocks whose trailing FNV digests make a
//!   torn tail self-identifying — the campaign-journal discipline, in
//!   binary).
//! * **Replay** — [`decode_events`] recovers the stream and [`replay`]
//!   re-drives *any* observer from it, no simulator needed: a replayed
//!   `CountingObserver` or `LeakTraceObserver` reproduces the live run's
//!   analysis bit-identically (proptested against live `CpuStats`).
//! * **Forensics** — [`first_divergence`] aligns two traces of the same
//!   plan on different machine configurations (commit-anchored, timing
//!   and taint annotations normalized away) and names the first event
//!   where the pipelines part ways: "the transient secret fill at the Nth
//!   `RunaheadEnter` that the SL cache suppressed".
//!
//! The crate does no file I/O: it turns events into bytes and back, and
//! the caller decides where the bytes live. `specrun-lab` writes logs
//! through its `ArtifactSink` atomic-replace protocol (so chaos fault
//! injection covers trace writes too) and reads them back whole.
//!
//! ```
//! use specrun_cpu::probe::{CountingObserver, PipelineObserver};
//! use specrun_cpu::{Core, CpuConfig};
//! use specrun_isa::{IntReg, ProgramBuilder};
//! use specrun_trace::{decode_events, encode_events, replay, RecordingObserver};
//!
//! let mut b = ProgramBuilder::new(0x1000);
//! b.li(IntReg::new(1).unwrap(), 42);
//! b.halt();
//! let program = b.build().unwrap();
//!
//! // Record a live run…
//! let mut core = Core::with_observer(CpuConfig::default(), RecordingObserver::new());
//! core.load_program(&program);
//! core.run(10_000);
//! let log = encode_events(core.observer().events());
//!
//! // …and replay the log through a fresh analysis observer, detached.
//! let mut counts = CountingObserver::default();
//! replay(&decode_events(&log).unwrap().events, &mut counts);
//! assert_eq!(counts.commits, core.stats().committed);
//! ```

mod diff;
mod format;
mod record;

pub use diff::{first_divergence, stream_stats, Divergence, StreamStats};
pub use format::{
    decode_events, encode_events, DecodedTrace, TraceError, BLOCK_EVENTS, TRACE_MAGIC,
};
pub use record::{replay, RecordingObserver};

// Re-exported so downstream trace consumers name the event types without
// a direct `specrun-cpu` dependency.
pub use specrun_cpu::probe::{PipelineEvent, PipelineObserver};
