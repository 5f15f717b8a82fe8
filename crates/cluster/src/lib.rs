//! Discrete-event cluster simulator.
//!
//! The paper's scalability experiments (Figures 6, 8 and the
//! 10⁶–10⁸-client points) ran on a 44-node cluster. This reproduction
//! executes on a single core, so testbed-scale parallelism is supplied
//! by a *calibrated simulator*: per-message service times are measured
//! from the real single-node implementation (see
//! `privapprox-bench::calibrate`), and this crate schedules those
//! costs over simulated multi-core nodes, links and synchronization
//! barriers. The shapes the paper reports — near-linear proxy
//! scale-up, the SplitX synchronization penalty — emerge from the
//! measured constants plus the scheduling structure, not from curve
//! fitting.
//!
//! * [`pool`] — multi-core earliest-free-core scheduling (the basic
//!   throughput model for proxies and aggregator nodes);
//! * [`net`] — link latency/bandwidth delays;
//! * [`phases`] — barrier-synchronized phase execution (SplitX's
//!   noise/intersect/shuffle pipeline);
//! * [`events`] — a general event queue for ad-hoc models and tests;
//! * [`deploy`] — the bridge from simulated [`ClusterSpec`] tiers to
//!   the *real* threaded runtime's thread/shard counts
//!   ([`DeploymentShape`], consumed by
//!   `privapprox_core::deploy::ShardedSystem`).
//!
//! Since PR 8 the crate also carries the **real** multi-process
//! transport the simulator used to stand in for:
//!
//! * [`wire`] — length-prefixed frame codec with a version header
//!   (layout in `docs/wire-format.md`);
//! * [`transport`] — the [`Transport`] trait over loopback TCP, an
//!   in-process channel pair, and a deterministic fault-injection
//!   wrapper ([`FaultyTransport`]) shaped by the [`Link`] model;
//! * [`supervise`] — per-connection supervision: reconnect with
//!   exponential backoff + jitter + retry budget, idempotent resend
//!   windows, link health counters;
//! * [`frontdoor`] — the node acceptor: connection multiplexing,
//!   admission control (connection cap, in-flight cap, typed
//!   `Overloaded` rejections) and per-client token-bucket rate
//!   limits.

pub mod deploy;
pub mod events;
pub mod frontdoor;
pub mod net;
pub mod phases;
pub mod pool;
pub mod supervise;
pub mod transport;
pub mod wire;

pub use deploy::DeploymentShape;
pub use events::{EventQueue, Heartbeat, HeartbeatStatus, Watchdog};
pub use frontdoor::{Admitted, AdmissionPolicy, FrontDoor, TokenBucket};
pub use net::Link;
pub use phases::{run_phases, Phase};
pub use pool::{ClusterSpec, ServerPool};
pub use supervise::{BackoffPolicy, LinkStats, Reassembly, SupervisedLink};
pub use transport::{
    ChannelTransport, FaultPlan, FaultyTransport, ReaderHandoff, TcpTransport, Transport, Wake,
};
pub use wire::{
    decode_data_batch, encode_data_batch, DataMsg, Frame, FrameKind, Hello, RejectReason,
    MAX_FRAME, WIRE_VERSION,
};

/// Simulated time in microseconds.
pub type SimTime = u64;

/// Converts an operations-per-second throughput measurement into a
/// per-operation service time in microseconds.
///
/// # Panics
///
/// Panics if `ops_per_sec` is not positive finite.
pub fn service_us_from_ops_per_sec(ops_per_sec: f64) -> f64 {
    assert!(
        ops_per_sec.is_finite() && ops_per_sec > 0.0,
        "throughput must be positive, got {ops_per_sec}"
    );
    1_000_000.0 / ops_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_conversion() {
        assert_eq!(service_us_from_ops_per_sec(1_000_000.0), 1.0);
        assert_eq!(service_us_from_ops_per_sec(500.0), 2_000.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throughput_rejected() {
        let _ = service_us_from_ops_per_sec(0.0);
    }
}
