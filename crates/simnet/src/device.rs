//! Edge-device compute and memory profiles.
//!
//! The paper measures on three hardware configurations: Raspberry Pi 3
//! Model B+ (CPU), Jetson TX2 using CPU only, and Jetson TX2 using its
//! integrated GPU. None of that hardware is available here, so each is
//! modeled by an *effective* roofline: a fixed framework invocation
//! overhead, a per-layer dispatch overhead, and a sustained FLOP/s rate.
//! The constants are calibrated so the paper's *baseline* rows (single
//! model, no communication) land near the reported magnitudes; everything
//! else (the relative behaviour of TeamNet / MPI / SG-MoE) then follows
//! from the model structure rather than from tuning.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Which execution unit a model runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeUnit {
    /// The device's CPU cores.
    Cpu,
    /// The device's integrated GPU (only on devices that have one).
    Gpu,
}

/// An effective-roofline model of one edge device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Sustained CPU throughput in GFLOP/s (framework-effective, not peak).
    pub cpu_gflops: f64,
    /// Sustained GPU throughput in GFLOP/s, if the device has a usable GPU.
    pub gpu_gflops: Option<f64>,
    /// Fixed cost of invoking the inference runtime once (session dispatch,
    /// input staging).
    pub invoke_overhead: SimTime,
    /// Per-layer kernel-launch/dispatch overhead on the CPU.
    pub cpu_layer_overhead: SimTime,
    /// Per-layer kernel-launch overhead on the GPU (launches are costlier
    /// relative to compute there).
    pub gpu_layer_overhead: SimTime,
    /// Hard physical RAM capacity in bytes (Jetson TX2: 8 GiB shared with
    /// the GPU; RPi 3B+: 1 GiB). The static admission check compares a
    /// model's certified resident requirement against this.
    pub memory_capacity_bytes: u64,
    /// Resident bytes of the ML framework runtime before any model is
    /// loaded (TensorFlow is heavy).
    pub runtime_resident_bytes: u64,
    /// Number of CPU cores (for utilization accounting).
    pub cpu_cores: u32,
}

/// A placement rejected by the static admission check: the model's
/// certified resident requirement does not fit the device RAM left over
/// after the framework runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionError {
    /// Device that rejected the placement.
    pub device: String,
    /// Certified resident bytes the model needs (parameters plus peak
    /// live activations, `teamnet_nn::ExpertCost::required_resident_bytes`).
    pub required_bytes: u64,
    /// Bytes actually available for model state on the device.
    pub available_bytes: u64,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model needs {} resident bytes but {} has only {} available \
             after the runtime",
            self.required_bytes, self.device, self.available_bytes
        )
    }
}

impl std::error::Error for AdmissionError {}

impl DeviceProfile {
    /// Raspberry Pi 3 Model B+ (quad A53, 1 GB RAM, no usable GPU).
    pub fn raspberry_pi_3b_plus() -> Self {
        DeviceProfile {
            name: "Raspberry Pi 3 Model B+".to_string(),
            cpu_gflops: 0.5,
            gpu_gflops: None,
            invoke_overhead: SimTime::from_micros(3_000),
            cpu_layer_overhead: SimTime::from_micros(1_200),
            gpu_layer_overhead: SimTime::ZERO,
            memory_capacity_bytes: 1 << 30,
            runtime_resident_bytes: 60 << 20,
            cpu_cores: 4,
        }
    }

    /// Jetson TX2 running models on its CPU cluster only.
    pub fn jetson_tx2_cpu() -> Self {
        DeviceProfile {
            name: "Jetson TX2 (CPU only)".to_string(),
            cpu_gflops: 4.0,
            gpu_gflops: None,
            invoke_overhead: SimTime::from_micros(1_000),
            cpu_layer_overhead: SimTime::from_micros(250),
            gpu_layer_overhead: SimTime::ZERO,
            memory_capacity_bytes: 8 << 30,
            runtime_resident_bytes: 380 << 20,
            cpu_cores: 6,
        }
    }

    /// Jetson TX2 with its 256-core Pascal GPU enabled.
    pub fn jetson_tx2_gpu() -> Self {
        DeviceProfile {
            name: "Jetson TX2 (GPU + CPU)".to_string(),
            cpu_gflops: 4.0,
            gpu_gflops: Some(110.0),
            invoke_overhead: SimTime::from_micros(120),
            cpu_layer_overhead: SimTime::from_micros(250),
            gpu_layer_overhead: SimTime::from_micros(25),
            memory_capacity_bytes: 8 << 30,
            runtime_resident_bytes: 560 << 20,
            cpu_cores: 6,
        }
    }

    /// Modeled wall-clock for one forward pass of `flops` floating-point
    /// operations across `layers` layers on the chosen unit.
    ///
    /// # Panics
    ///
    /// Panics if [`ComputeUnit::Gpu`] is requested on a device without one.
    pub fn compute_time(&self, flops: u64, layers: usize, unit: ComputeUnit) -> SimTime {
        let (gflops, layer_overhead) = match unit {
            ComputeUnit::Cpu => (self.cpu_gflops, self.cpu_layer_overhead),
            ComputeUnit::Gpu => (
                self.gpu_gflops
                    // Documented `# Panics` contract: a GPU request against a
                    // CPU-only profile is a simulation-config bug, not a
                    // runtime condition. lint: allow(no-panic)
                    .unwrap_or_else(|| panic!("{} has no GPU", self.name)),
                self.gpu_layer_overhead,
            ),
        };
        let crunch = SimTime::from_secs_f64(flops as f64 / (gflops * 1e9));
        let mut t = self.invoke_overhead + crunch;
        for _ in 0..layers {
            t += layer_overhead;
        }
        t
    }

    /// Total modeled resident bytes when serving a model whose static
    /// certificate requires `required_resident_bytes` (weights plus peak
    /// live activations): the certified requirement on top of the fixed
    /// framework runtime.
    ///
    /// Earlier revisions estimated the model term with a per-layer-MB
    /// heuristic; it is now taken directly from the liveness analysis in
    /// `teamnet_nn::cost` (DESIGN.md §13), so the number here is the same
    /// one `cargo xtask cost` certifies and CI checks against measured
    /// allocations.
    pub fn resident_bytes(&self, required_resident_bytes: u64) -> u64 {
        self.runtime_resident_bytes
            .saturating_add(required_resident_bytes)
    }

    /// Modeled resident memory share (percent of device RAM) when serving
    /// a model of `param_bytes` parameters with certified peak live
    /// activation footprint `peak_activation_bytes`.
    pub fn memory_percent(&self, param_bytes: u64, peak_activation_bytes: u64) -> f64 {
        let resident = self.resident_bytes(param_bytes.saturating_add(peak_activation_bytes));
        (resident as f64 / self.memory_capacity_bytes as f64 * 100.0).min(100.0)
    }

    /// Static admission check: can a model whose certificate requires
    /// `required_resident_bytes` fit on this device at all?
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError`] when the requirement exceeds the RAM
    /// left after the framework runtime.
    pub fn admit(&self, required_resident_bytes: u64) -> Result<(), AdmissionError> {
        let available = self
            .memory_capacity_bytes
            .saturating_sub(self.runtime_resident_bytes);
        if required_resident_bytes <= available {
            Ok(())
        } else {
            Err(AdmissionError {
                device: self.name.clone(),
                required_bytes: required_resident_bytes,
                available_bytes: available,
            })
        }
    }

    /// The pure arithmetic part of [`DeviceProfile::compute_time`]
    /// (exclusive of invoke and per-layer dispatch overheads): the time the
    /// execution unit itself is actually busy.
    ///
    /// # Panics
    ///
    /// Panics if [`ComputeUnit::Gpu`] is requested on a device without one.
    pub fn crunch_time(&self, flops: u64, unit: ComputeUnit) -> SimTime {
        let gflops = match unit {
            ComputeUnit::Cpu => self.cpu_gflops,
            ComputeUnit::Gpu => {
                // Documented `# Panics` contract, as in `compute_time`.
                // lint: allow(no-panic)
                self.gpu_gflops
                    .unwrap_or_else(|| panic!("{} has no GPU", self.name))
            }
        };
        SimTime::from_secs_f64(flops as f64 / (gflops * 1e9))
    }

    /// Modeled average CPU utilization (percent) while serving requests
    /// whose per-request CPU busy time is `cpu_busy` at one request per
    /// `period`.
    ///
    /// A busy fraction of 1.0 maps to the utilization of a single-threaded
    /// inference loop (100 / cores × an empirical parallelism factor of
    /// ~2.5: BLAS kernels use a few cores).
    pub fn cpu_percent(&self, cpu_busy: SimTime, period: SimTime) -> f64 {
        if period == SimTime::ZERO {
            return 0.0;
        }
        let busy_frac = (cpu_busy.as_secs_f64() / period.as_secs_f64()).min(1.0);
        let parallelism = 2.5f64.min(self.cpu_cores as f64);
        (busy_frac * parallelism / self.cpu_cores as f64 * 100.0).min(100.0)
    }

    /// Modeled average GPU utilization (percent), analogous to
    /// [`DeviceProfile::cpu_percent`]. Zero on devices without a GPU.
    pub fn gpu_percent(&self, gpu_busy: SimTime, period: SimTime) -> f64 {
        if self.gpu_gflops.is_none() || period == SimTime::ZERO {
            return 0.0;
        }
        let busy_frac = (gpu_busy.as_secs_f64() / period.as_secs_f64()).min(1.0);
        (busy_frac * 100.0).min(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_sane_shapes() {
        let rpi = DeviceProfile::raspberry_pi_3b_plus();
        let jcpu = DeviceProfile::jetson_tx2_cpu();
        let jgpu = DeviceProfile::jetson_tx2_gpu();
        assert!(rpi.cpu_gflops < jcpu.cpu_gflops);
        assert!(rpi.gpu_gflops.is_none());
        assert!(jgpu.gpu_gflops.unwrap() > 10.0 * jgpu.cpu_gflops);
        assert!(rpi.memory_capacity_bytes < jcpu.memory_capacity_bytes);
    }

    #[test]
    fn compute_time_scales_with_flops() {
        let dev = DeviceProfile::jetson_tx2_cpu();
        let small = dev.compute_time(1_000_000, 8, ComputeUnit::Cpu);
        let large = dev.compute_time(100_000_000, 8, ComputeUnit::Cpu);
        assert!(large > small);
        // 100 MFLOP at 4 GFLOP/s = 25 ms of crunch plus overheads.
        assert!((large.as_millis_f64() - 25.0).abs() < 5.0, "{large}");
    }

    #[test]
    fn gpu_is_faster_for_heavy_models() {
        let dev = DeviceProfile::jetson_tx2_gpu();
        let heavy = 1_500_000_000u64; // SS-26 class
        let cpu = dev.compute_time(heavy, 26, ComputeUnit::Cpu);
        let gpu = dev.compute_time(heavy, 26, ComputeUnit::Gpu);
        assert!(gpu < cpu);
        assert!(gpu.as_millis_f64() < 30.0, "{gpu}");
    }

    #[test]
    #[should_panic(expected = "has no GPU")]
    fn gpu_on_rpi_panics() {
        DeviceProfile::raspberry_pi_3b_plus().compute_time(1, 1, ComputeUnit::Gpu);
    }

    #[test]
    fn baseline_mnist_latency_matches_paper_ballpark() {
        // Paper Table I(a): 8-layer MLP baseline on Jetson CPU = 3.4 ms.
        // Our MLP-8 (hidden 256) is ≈ 1.5 MFLOP over 8 layers.
        let dev = DeviceProfile::jetson_tx2_cpu();
        let t = dev
            .compute_time(1_500_000, 8, ComputeUnit::Cpu)
            .as_millis_f64();
        assert!((1.0..8.0).contains(&t), "modeled {t} ms, paper 3.4 ms");
    }

    #[test]
    fn baseline_cifar_latency_matches_paper_ballpark() {
        // Paper Table II: SS-26 baseline, Jetson CPU 378 ms / GPU 14.3 ms.
        let flops = 1_500_000_000u64;
        let cpu = DeviceProfile::jetson_tx2_cpu().compute_time(flops, 26, ComputeUnit::Cpu);
        assert!((200.0..600.0).contains(&cpu.as_millis_f64()), "{cpu}");
        let gpu = DeviceProfile::jetson_tx2_gpu().compute_time(flops, 26, ComputeUnit::Gpu);
        assert!((5.0..30.0).contains(&gpu.as_millis_f64()), "{gpu}");
    }

    #[test]
    fn memory_percent_ranges() {
        let dev = DeviceProfile::jetson_tx2_cpu();
        // The framework runtime alone: 380 MiB of 8 GiB ≈ 4.6%.
        let idle = dev.memory_percent(0, 0);
        assert!((4.0..5.5).contains(&idle), "{idle}");
        // A bigger certified requirement costs strictly more.
        let baseline = dev.memory_percent(6_000_000, 2_000_000);
        let expert = dev.memory_percent(1_000_000, 500_000);
        assert!(idle < expert && expert < baseline);
        // Capped at 100.
        assert_eq!(dev.memory_percent(u64::MAX / 8, 0), 100.0);
    }

    #[test]
    fn memory_tracks_the_certified_requirement() {
        // The heuristic this replaced charged RAM per layer; the share now
        // moves only with the certified resident bytes.
        let dev = DeviceProfile::jetson_tx2_cpu();
        let small = dev.memory_percent(100_000, 100_000);
        let large = dev.memory_percent(10_100_000, 100_000);
        let expected = 10_000_000.0 / dev.memory_capacity_bytes as f64 * 100.0;
        assert!(
            (large - small - expected).abs() < 1e-9,
            "{large} - {small} != {expected}"
        );
    }

    #[test]
    fn admission_is_a_hard_capacity_check() {
        let rpi = DeviceProfile::raspberry_pi_3b_plus();
        assert!(rpi.admit(100 << 20).is_ok(), "100 MiB fits a 1 GiB Pi");
        let available = rpi.memory_capacity_bytes - rpi.runtime_resident_bytes;
        assert!(rpi.admit(available).is_ok(), "exact fit admitted");
        let err = rpi.admit(available + 1).unwrap_err();
        assert_eq!(err.available_bytes, available);
        assert_eq!(err.required_bytes, available + 1);
        assert!(err.to_string().contains("Raspberry Pi"), "{err}");
        // The Jetson admits what the Pi rejects.
        assert!(DeviceProfile::jetson_tx2_cpu().admit(available + 1).is_ok());
    }

    #[test]
    fn crunch_time_excludes_overheads() {
        let dev = DeviceProfile::jetson_tx2_gpu();
        let crunch = dev.crunch_time(1_100_000_000, ComputeUnit::Gpu);
        assert!((crunch.as_millis_f64() - 10.0).abs() < 0.1, "{crunch}");
        let total = dev.compute_time(1_100_000_000, 26, ComputeUnit::Gpu);
        assert!(total > crunch);
    }

    #[test]
    fn utilization_model() {
        let dev = DeviceProfile::jetson_tx2_cpu();
        // Fully busy single-threaded loop: 2.5/6 cores ≈ 41%.
        let full = dev.cpu_percent(SimTime::from_millis(10), SimTime::from_millis(10));
        assert!((35.0..50.0).contains(&full), "{full}");
        // Half busy → half of that.
        let half = dev.cpu_percent(SimTime::from_millis(5), SimTime::from_millis(10));
        assert!((full / half - 2.0).abs() < 0.1);
        assert_eq!(dev.cpu_percent(SimTime::from_millis(1), SimTime::ZERO), 0.0);
        // GPU percent is zero without a GPU.
        assert_eq!(
            DeviceProfile::raspberry_pi_3b_plus()
                .gpu_percent(SimTime::from_millis(1), SimTime::from_millis(1)),
            0.0
        );
        let gpu = DeviceProfile::jetson_tx2_gpu()
            .gpu_percent(SimTime::from_millis(3), SimTime::from_millis(10));
        assert!((gpu - 30.0).abs() < 1.0);
    }
}
