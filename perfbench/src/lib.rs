//! The repository benchmark's library: workloads, the driver that runs
//! them against `ShardedSystem`, output checks, tracing, layer replays
//! and the statistics the runs are judged by. The `perfbench` binary
//! runs one workload; `agree` repeats it over seeds.

pub mod procfs;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
