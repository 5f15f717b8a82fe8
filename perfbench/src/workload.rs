//! The benchmark's workloads, the seeded column data they load, and
//! how each one builds its `ShardedSystem`.

use privapprox_core::{CoreError, ShardedSystem};
use privapprox_types::{AnswerSpec, ExecutionParams, Query};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Pipeline depth of every workload.
pub const DEPTH: usize = 3;

/// Tumbling window (and epoch) length in event time, ms.
pub const WINDOW_MS: u64 = 60_000;

/// Upper edge of the answer ranges; values at or above it land in the
/// overflow bucket.
const RANGE_HI: f64 = 110.0;

/// How the generator paces epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Submit the next epoch as soon as the previous `submit_epoch`
    /// returns, with up to [`DEPTH`] epochs in flight.
    Closed,
    /// Epochs fall due on a fixed period, whatever the system does.
    Open {
        /// Time between due times. A constant of the benchmark, never
        /// derived from a measurement.
        period: Duration,
    },
}

/// One workload: a deployment shape, a query mix and a pacing.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name given on the command line.
    pub name: &'static str,
    /// Client population.
    pub clients: u64,
    /// Answer width `n` (buckets per answer).
    pub buckets: usize,
    /// Sampling fraction `s`.
    pub s: f64,
    /// Queries admitted to the schedule (1 means plain `submit_epoch`).
    pub queries: usize,
    /// Durable store on a real-disk directory.
    pub durable: bool,
    /// Proxies and shards run as `privapprox-node` children over
    /// loopback TCP.
    pub process: bool,
    /// Epoch pacing.
    pub pacing: Pacing,
}

/// Randomized-response parameters `p`, `q` of every workload (the
/// paper's setting).
pub const P: f64 = 0.9;
/// See [`P`].
pub const Q: f64 = 0.6;

/// Proxies (the XOR minimum), shards and workers of every workload,
/// one per core of a 2-core host.
pub const PROXIES: usize = 2;
/// See [`PROXIES`].
pub const SHARDS: usize = 2;
/// See [`PROXIES`].
pub const WORKERS: usize = 2;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> [Workload; 2] {
    [
        Workload {
            name: "wide_durable",
            clients: 3_000,
            buckets: 10_000,
            s: 0.9,
            queries: 1,
            durable: true,
            process: false,
            pacing: Pacing::Closed,
        },
        Workload {
            name: "socket_paced",
            clients: 1_000,
            buckets: 1_000,
            s: 0.6,
            queries: 2,
            durable: false,
            process: true,
            pacing: Pacing::Open {
                period: Duration::from_millis(100),
            },
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Client `i`'s column value under `seed`: skewed toward small values
/// over `[0, 121)`, so about one client in twenty lands in the overflow
/// bucket.
pub fn value(seed: u64, i: usize) -> f64 {
    let u = (mix(seed ^ mix(i as u64)) >> 11) as f64 / (1u64 << 53) as f64;
    121.0 * u * u.sqrt()
}

impl Workload {
    /// The answer format: `buckets - 1` equal ranges over `[0, 110)`
    /// plus an overflow bucket.
    pub fn spec(&self) -> AnswerSpec {
        AnswerSpec::ranges_with_overflow(0.0, RANGE_HI, self.buckets - 1)
    }

    /// Execution parameters of every query.
    pub fn params(&self) -> ExecutionParams {
        ExecutionParams::checked(self.s, P, Q)
    }

    /// The true per-bucket client counts of the data loaded under
    /// `seed`.
    pub fn histogram(&self, seed: u64) -> Vec<u64> {
        let spec = self.spec();
        let mut counts = vec![0u64; self.buckets];
        for i in 0..self.clients as usize {
            let b = spec
                .bucketize_num(value(seed, i))
                .expect("the overflow bucket catches all");
            counts[b] += 1;
        }
        counts
    }

    /// Builds, loads and registers a deployment: the set-up a user
    /// pays before the first epoch. `store` is the durable directory
    /// (required when the workload is durable) and `node` the
    /// `privapprox-node` executable (required for process transport).
    pub fn deploy(
        &self,
        seed: u64,
        store: Option<&Path>,
        node: Option<&Path>,
    ) -> Result<(ShardedSystem, Vec<Query>), CoreError> {
        let mut system = self.build(seed, store, node)?;
        self.load(&mut system, seed)?;
        let queries = (0..self.queries)
            .map(|_| {
                system
                    .analyst()
                    .query("SELECT d FROM rides")
                    .buckets(self.spec())
                    .window(WINDOW_MS, WINDOW_MS)
                    .params(self.params())
                    .submit()
            })
            .collect::<Result<Vec<_>, _>>()?;
        if self.queries > 1 {
            for q in &queries {
                system.admit(q.id)?;
            }
        }
        Ok((system, queries))
    }

    /// The builder step alone (also used to reopen a crashed store).
    pub fn build(
        &self,
        seed: u64,
        store: Option<&Path>,
        node: Option<&Path>,
    ) -> Result<ShardedSystem, CoreError> {
        let mut builder = ShardedSystem::builder()
            .clients(self.clients)
            .proxies(PROXIES as u16)
            .shards(SHARDS)
            .workers(WORKERS)
            .pipeline_depth(DEPTH)
            .concurrent_queries(self.queries)
            .seed(seed);
        if self.durable {
            builder = builder.durable(PathBuf::from(
                store.expect("durable workload needs a store"),
            ));
        }
        if self.process {
            // Resends are for genuine stalls, not for an ack that lags
            // the 250 ms default because the host's two cores are busy.
            builder = builder
                .process_transport(node.expect("process workload needs a node binary"))
                .link_resend_after(Duration::from_secs(2));
        }
        Ok(builder.try_build()?)
    }

    /// Loads the seeded column into every client.
    pub fn load(&self, system: &mut ShardedSystem, seed: u64) -> Result<(), CoreError> {
        system.load_numeric_column("rides", "d", move |i| value(seed, i))
    }

    /// Submits one epoch of every query.
    pub fn submit(&self, system: &mut ShardedSystem, queries: &[Query]) -> Result<(), CoreError> {
        if self.queries > 1 {
            system.submit_epoch_all()
        } else {
            system.submit_epoch(&queries[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_depends_on_seed_and_fills_the_overflow_bucket() {
        let w = by_name("socket_paced").unwrap();
        let a = w.histogram(1);
        assert_eq!(a.iter().sum::<u64>(), w.clients);
        assert_ne!(a, w.histogram(2));
        assert_eq!(a, w.histogram(1));
        let overflow = a[w.buckets - 1] as f64 / w.clients as f64;
        assert!((0.02..0.1).contains(&overflow), "overflow share {overflow}");
    }

    #[test]
    fn every_workload_samples_below_one() {
        for w in all() {
            assert!(w.s < 1.0, "{}: s must stay below 1", w.name);
        }
    }
}
