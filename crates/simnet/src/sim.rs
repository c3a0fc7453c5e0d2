//! Cluster-level simulation of a distributed inference.
//!
//! A [`SimRun`] tracks one logical clock per device plus a shared-medium
//! clock for the WiFi channel. Execution strategies (TeamNet broadcast +
//! gather, MPI per-layer collectives, RPC fan-out) are expressed as
//! sequences of `compute` / `send` / `broadcast` / `gather` calls; the run
//! then reports the makespan and per-device utilization that the paper's
//! tables list.

use crate::device::{ComputeUnit, DeviceProfile};
use crate::link::WifiLink;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A set of edge devices sharing one wireless medium.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimCluster {
    /// Device profiles by node id.
    pub devices: Vec<DeviceProfile>,
    /// The shared link between all of them.
    pub link: WifiLink,
}

impl SimCluster {
    /// A cluster of `n` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn homogeneous(profile: DeviceProfile, n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one device");
        SimCluster {
            devices: vec![profile; n],
            link: WifiLink::wifi_80211n(),
        }
    }

    /// A cluster of explicitly listed (possibly different) devices — the
    /// paper's mixed Raspberry Pi / Jetson deployments.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    pub fn heterogeneous(devices: Vec<DeviceProfile>) -> Self {
        assert!(!devices.is_empty(), "cluster needs at least one device");
        SimCluster {
            devices,
            link: WifiLink::wifi_80211n(),
        }
    }

    /// Replaces the link model.
    pub fn with_link(mut self, link: WifiLink) -> Self {
        self.link = link;
        self
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True if the cluster has no devices (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Starts a fresh simulated execution.
    pub fn run(&self) -> SimRun<'_> {
        SimRun {
            cluster: self,
            node_time: vec![SimTime::ZERO; self.devices.len()],
            cpu_busy: vec![SimTime::ZERO; self.devices.len()],
            gpu_busy: vec![SimTime::ZERO; self.devices.len()],
            medium_free_at: SimTime::ZERO,
            bytes_sent: 0,
            messages_sent: 0,
        }
    }
}

/// One simulated distributed execution over a [`SimCluster`].
#[derive(Debug)]
pub struct SimRun<'a> {
    cluster: &'a SimCluster,
    node_time: Vec<SimTime>,
    cpu_busy: Vec<SimTime>,
    gpu_busy: Vec<SimTime>,
    medium_free_at: SimTime,
    bytes_sent: u64,
    messages_sent: u64,
}

impl SimRun<'_> {
    /// Runs a forward pass of `flops` FLOPs over `layers` layers on `node`,
    /// advancing its clock.
    pub fn compute(&mut self, node: usize, flops: u64, layers: usize, unit: ComputeUnit) {
        let device = &self.cluster.devices[node];
        let t = device.compute_time(flops, layers, unit);
        self.node_time[node] += t;
        match unit {
            ComputeUnit::Cpu => self.cpu_busy[node] += t,
            ComputeUnit::Gpu => {
                // Only the arithmetic occupies the GPU; dispatch overheads
                // are CPU-side driver work.
                let crunch = device.crunch_time(flops, unit);
                self.gpu_busy[node] += crunch;
                self.cpu_busy[node] += t.saturating_sub(crunch);
            }
        }
    }

    /// Advances `node`'s clock by a fixed overhead without charging any
    /// compute unit (protocol bookkeeping, serialization stacks).
    pub fn delay(&mut self, node: usize, time: SimTime) {
        self.node_time[node] += time;
    }

    /// Transmits `bytes` from `from` to `to` over the shared medium,
    /// advancing both clocks past the arrival and serializing with any
    /// other in-flight transmission.
    pub fn send(&mut self, from: usize, to: usize, bytes: u64) {
        let airtime = self.cluster.link.transfer_time(bytes);
        let start = self.node_time[from].max(self.medium_free_at);
        let end = start + airtime;
        self.medium_free_at = end;
        self.node_time[from] = end; // blocking send (TCP write + ACK)
        self.node_time[to] = self.node_time[to].max(end);
        self.bytes_sent += bytes;
        self.messages_sent += 1;
    }

    /// Unicasts `bytes` from `from` to every other node in id order
    /// (WiFi has no reliable multicast; the paper's broadcast loops over
    /// TCP sockets).
    pub fn broadcast(&mut self, from: usize, bytes: u64) {
        for to in 0..self.cluster.len() {
            if to != from {
                self.send(from, to, bytes);
            }
        }
    }

    /// Every other node sends `bytes` to `to` (completion of a gather).
    pub fn gather(&mut self, to: usize, bytes: u64) {
        for from in 0..self.cluster.len() {
            if from != to {
                self.send(from, to, bytes);
            }
        }
    }

    /// Synchronizes all node clocks to the latest (a barrier, ignoring the
    /// barrier's own messages).
    pub fn sync_all(&mut self) {
        let latest = self
            .node_time
            .iter()
            .max()
            .copied()
            .unwrap_or(SimTime::ZERO);
        for t in &mut self.node_time {
            *t = latest;
        }
    }

    /// Current local time of `node`.
    pub fn node_time(&self, node: usize) -> SimTime {
        self.node_time[node]
    }

    /// The latest local clock — the end-to-end latency so far.
    pub fn makespan(&self) -> SimTime {
        self.node_time
            .iter()
            .max()
            .copied()
            .unwrap_or(SimTime::ZERO)
    }

    /// Finalizes the run into a report. `period` is the request
    /// inter-arrival time used for utilization accounting; pass `None` for
    /// back-to-back serving (period = makespan).
    pub fn finish(self, period: Option<SimTime>) -> SimReport {
        let makespan = self.makespan();
        let period = period.unwrap_or(makespan);
        let cpu_percent = self
            .cluster
            .devices
            .iter()
            .zip(&self.cpu_busy)
            .map(|(d, &busy)| d.cpu_percent(busy, period))
            .collect();
        let gpu_percent = self
            .cluster
            .devices
            .iter()
            .zip(&self.gpu_busy)
            .map(|(d, &busy)| d.gpu_percent(busy, period))
            .collect();
        SimReport {
            makespan,
            cpu_busy: self.cpu_busy,
            gpu_busy: self.gpu_busy,
            cpu_percent,
            gpu_percent,
            bytes_sent: self.bytes_sent,
            messages_sent: self.messages_sent,
        }
    }
}

/// Outcome of a [`SimRun`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// End-to-end latency of the simulated operation.
    pub makespan: SimTime,
    /// Per-node CPU busy time.
    pub cpu_busy: Vec<SimTime>,
    /// Per-node GPU busy time.
    pub gpu_busy: Vec<SimTime>,
    /// Per-node modeled CPU utilization (percent).
    pub cpu_percent: Vec<f64>,
    /// Per-node modeled GPU utilization (percent).
    pub gpu_percent: Vec<f64>,
    /// Total payload bytes that crossed the medium.
    pub bytes_sent: u64,
    /// Total messages that crossed the medium.
    pub messages_sent: u64,
}

impl SimReport {
    /// Mean CPU utilization across nodes.
    pub fn mean_cpu_percent(&self) -> f64 {
        mean(&self.cpu_percent)
    }

    /// Mean GPU utilization across nodes.
    pub fn mean_gpu_percent(&self) -> f64 {
        mean(&self.gpu_percent)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> SimCluster {
        SimCluster::homogeneous(DeviceProfile::jetson_tx2_cpu(), n)
    }

    #[test]
    fn lone_compute_is_device_time() {
        let c = cluster(1);
        let mut run = c.run();
        run.compute(0, 4_000_000_000, 10, ComputeUnit::Cpu);
        // 4 GFLOP at 4 GFLOP/s = 1 s plus small overheads.
        let t = run.makespan().as_secs_f64();
        assert!((t - 1.0).abs() < 0.01, "{t}");
    }

    #[test]
    fn parallel_compute_overlaps() {
        let c = cluster(2);
        let mut run = c.run();
        run.compute(0, 4_000_000_000, 1, ComputeUnit::Cpu);
        run.compute(1, 4_000_000_000, 1, ComputeUnit::Cpu);
        // Both nodes computed concurrently: makespan ≈ one compute, not two.
        assert!(run.makespan().as_secs_f64() < 1.1);
    }

    #[test]
    fn medium_serializes_transfers() {
        let c = cluster(3);
        let mut run = c.run();
        // Two different senders transmit 1 MB each at time zero: the second
        // must wait for the medium.
        run.send(0, 2, 1_000_000);
        let after_first = run.makespan();
        run.send(1, 2, 1_000_000);
        let after_second = run.makespan();
        let one_airtime = c.link.transfer_time(1_000_000);
        assert!((after_second.as_secs_f64() - 2.0 * one_airtime.as_secs_f64()).abs() < 1e-6);
        assert!(after_second > after_first);
    }

    #[test]
    fn broadcast_costs_k_airtimes() {
        let c = cluster(4);
        let mut run = c.run();
        run.broadcast(0, 10_000);
        let expected = 3.0 * c.link.transfer_time(10_000).as_secs_f64();
        assert!((run.makespan().as_secs_f64() - expected).abs() < 1e-6);
        assert_eq!(run.finish(None).messages_sent, 3);
    }

    #[test]
    fn teamnet_beats_chatty_mpi_shape() {
        // The paper's headline: one broadcast + one gather (TeamNet) is far
        // cheaper than per-layer communication (MPI) on WiFi, even when MPI
        // moves fewer bytes per message.
        let c = cluster(2);

        // TeamNet: broadcast input (3 KB), both compute half-size model,
        // gather one result (~50 B).
        let mut teamnet = c.run();
        teamnet.broadcast(0, 3_136);
        teamnet.compute(0, 750_000, 4, ComputeUnit::Cpu);
        teamnet.compute(1, 750_000, 4, ComputeUnit::Cpu);
        teamnet.gather(0, 50);
        let teamnet_ms = teamnet.finish(None).makespan.as_millis_f64();

        // MPI-Matrix: per layer, scatter activations and gather partials.
        let mut mpi = c.run();
        for _ in 0..8 {
            mpi.send(0, 1, 2_000);
            mpi.compute(0, 95_000, 1, ComputeUnit::Cpu);
            mpi.compute(1, 95_000, 1, ComputeUnit::Cpu);
            mpi.send(1, 0, 2_000);
        }
        let mpi_ms = mpi.finish(None).makespan.as_millis_f64();

        assert!(
            mpi_ms > 3.0 * teamnet_ms,
            "MPI {mpi_ms} ms should dwarf TeamNet {teamnet_ms} ms"
        );
    }

    #[test]
    fn utilization_reported_per_node() {
        let c = cluster(2);
        let mut run = c.run();
        run.compute(0, 400_000_000, 1, ComputeUnit::Cpu); // 100 ms busy
        run.sync_all();
        let report = run.finish(None);
        assert!(report.cpu_percent[0] > report.cpu_percent[1]);
        assert_eq!(report.cpu_percent.len(), 2);
        assert!(report.mean_cpu_percent() > 0.0);
        assert_eq!(report.mean_gpu_percent(), 0.0);
    }

    #[test]
    fn gpu_compute_charges_gpu_and_some_cpu() {
        let c = SimCluster::homogeneous(DeviceProfile::jetson_tx2_gpu(), 1);
        let mut run = c.run();
        run.compute(0, 1_000_000_000, 26, ComputeUnit::Gpu);
        let report = run.finish(None);
        assert!(report.gpu_busy[0] > SimTime::ZERO);
        assert!(report.cpu_busy[0] > SimTime::ZERO);
        assert!(report.gpu_percent[0] > 50.0);
    }

    #[test]
    fn explicit_period_lowers_utilization() {
        let c = cluster(1);
        let mut run = c.run();
        run.compute(0, 40_000_000, 1, ComputeUnit::Cpu); // 10 ms
        let report = run.finish(Some(SimTime::from_millis(100)));
        let busy_report = {
            let mut run = c.run();
            run.compute(0, 40_000_000, 1, ComputeUnit::Cpu);
            run.finish(None)
        };
        assert!(report.cpu_percent[0] < busy_report.cpu_percent[0] / 5.0);
    }

    #[test]
    fn heterogeneous_cluster_is_paced_by_the_slow_device() {
        // A Jetson + RPi pair doing equal expert work: the makespan is the
        // RPi's compute time, not the Jetson's.
        let cluster = SimCluster::heterogeneous(vec![
            DeviceProfile::jetson_tx2_cpu(),
            DeviceProfile::raspberry_pi_3b_plus(),
        ]);
        let mut run = cluster.run();
        let flops = 2_000_000u64;
        run.compute(0, flops, 4, ComputeUnit::Cpu);
        run.compute(1, flops, 4, ComputeUnit::Cpu);
        let jetson_t = cluster.devices[0].compute_time(flops, 4, ComputeUnit::Cpu);
        let rpi_t = cluster.devices[1].compute_time(flops, 4, ComputeUnit::Cpu);
        assert!(rpi_t > jetson_t);
        assert_eq!(run.makespan(), rpi_t);
    }

    #[test]
    fn delay_advances_without_busy_time() {
        let c = cluster(1);
        let mut run = c.run();
        run.delay(0, SimTime::from_millis(7));
        assert_eq!(run.makespan(), SimTime::from_millis(7));
        let report = run.finish(None);
        assert_eq!(report.cpu_busy[0], SimTime::ZERO);
    }

    #[test]
    fn sync_all_aligns_clocks() {
        let c = cluster(3);
        let mut run = c.run();
        run.compute(1, 4_000_000, 1, ComputeUnit::Cpu);
        run.sync_all();
        assert_eq!(run.node_time(0), run.node_time(1));
        assert_eq!(run.node_time(2), run.node_time(1));
    }
}
