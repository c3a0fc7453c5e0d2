//! # teamnet-simnet
//!
//! A simulator of WiFi-connected edge devices, standing in for the
//! physical testbed of the TeamNet (ICDCS 2019) paper (Raspberry Pi 3
//! Model B+ and Jetson TX2 boards on one 802.11 BSS).
//!
//! Three pieces compose:
//!
//! * [`DeviceProfile`] — effective-roofline compute/memory models of the
//!   paper's three hardware configurations (RPi CPU, Jetson CPU, Jetson
//!   GPU), calibrated against the paper's single-device baseline rows;
//! * [`WifiLink`] — a shared-medium link model with per-message overhead
//!   and finite goodput (the two properties that decide every distributed
//!   comparison in the paper);
//! * [`SimCluster`] / [`SimRun`] — vector-clock simulation of a
//!   distributed inference expressed as compute/send/broadcast/gather
//!   steps, yielding latency and utilization reports.
//!
//! [`simulate_serving`] adds request arrivals: a Poisson stream through
//! one FIFO server (M/D/1), for the benchmark harness's load ablation.
//!
//! # Examples
//!
//! ```
//! use teamnet_simnet::{ComputeUnit, DeviceProfile, SimCluster};
//!
//! // Two Jetsons collaborating TeamNet-style on one input.
//! let cluster = SimCluster::homogeneous(DeviceProfile::jetson_tx2_cpu(), 2);
//! let mut run = cluster.run();
//! run.broadcast(0, 3_136);                        // master ships the image
//! run.compute(0, 750_000, 4, ComputeUnit::Cpu);   // both experts in parallel
//! run.compute(1, 750_000, 4, ComputeUnit::Cpu);
//! run.gather(0, 64);                              // worker returns its result
//! let report = run.finish(None);
//! assert!(report.makespan.as_millis_f64() < 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod device;
mod link;
mod sim;
mod time;

pub use arrivals::{poisson_schedule, simulate_serving, ServingReport};
pub use device::{AdmissionError, ComputeUnit, DeviceProfile};
pub use link::WifiLink;
pub use sim::{SimCluster, SimReport, SimRun};
pub use time::SimTime;
