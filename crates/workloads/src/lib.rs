//! Synthetic workload traces for the ImPress performance evaluation.
//!
//! The paper drives its ChampSim + DRAMsim3 simulations with two classes of workloads
//! (§III-A): ten SPEC2017 traces (low/medium row-buffer locality) and ten STREAM-based
//! workloads (four kernels plus six mixes, all with very high spatial locality). We
//! cannot redistribute SPEC traces, so this crate generates *synthetic* LLC-miss
//! streams whose two properties that matter for the paper's figures — memory intensity
//! (misses per kilo-instruction) and row-buffer locality (average sequential run
//! length) — are set per workload to span the same range as the originals. DESIGN.md
//! documents this substitution.
//!
//! A [`profile::WorkloadProfile`] describes a workload; [`generator::TraceGenerator`]
//! turns it into a deterministic, seeded stream of [`trace::MemoryAccess`]es;
//! [`mix::WorkloadMix`] assembles the 8-core rate-mode and mixed configurations used in
//! the evaluation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod faults;
pub mod generator;
pub mod mix;
pub mod profile;
pub mod source;
pub mod spec;
pub mod stream;
pub mod trace;
pub mod transport;

pub use codec::{
    DecodeMode, FaultKind, IngestFault, TraceMeta, TraceReader, TraceRecord, TraceWriter,
};
pub use faults::{
    apply_plan, connect_flood, run_hostile_producer, run_slow_loris, ChaosOutcome, ChaosPlan,
    ChaosRole, ConnFaultOp, ConnFaultPlan, ConnFaultState, FaultInjector, FaultOp, FaultPlan,
    FaultTransport, FloodReport, FrameMap,
};
pub use generator::TraceGenerator;
pub use mix::WorkloadMix;
pub use profile::{LocalityClass, WorkloadProfile};
pub use source::{
    AccessSource, DisconnectReason, FollowPolicy, FollowSource, ReadSource, SliceSource,
    TraceSource, TransportEvent,
};
pub use trace::MemoryAccess;
pub use transport::{
    send_stream, send_to, ClientLink, Endpoint, FileInput, Handshake, Listener, MemInput,
    ReaderInput, SendInput, SendOptions, SendOutcome, ServerPoll, ServerReply, SocketTuning,
    TenantLimits, TenantServer, TenantSink, Wire, WireLink,
};
