//! The synthetic BOINC host-population model. Parameter choices follow the
//! published shape of mid-2000s volunteer-computing populations (XtremLab /
//! SETI@home host censuses): overwhelmingly Windows, 1–2 cores, power-of-two
//! RAM concentrated at 256 MB–1 GB, log-normal disk sizes, DSL-dominated
//! bandwidth — i.e. *highly skewed marginals*, which is the property Fig. 9b
//! depends on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::distributions::{lognormal, CategoricalU64, Zipf};

/// Names of the 16 attributes, in the order [`Host::to_values`] emits them.
pub const ATTRIBUTE_NAMES: [&str; 16] = [
    "cpu_cores",
    "cpu_mhz",
    "ram_mb",
    "swap_mb",
    "disk_gb",
    "disk_free_gb",
    "bandwidth_down_kbps",
    "bandwidth_up_kbps",
    "os_family",
    "cpu_vendor",
    "fpops_mips",
    "iops_mips",
    "mem_bw_mbps",
    "uptime_hours",
    "availability_pct",
    "timezone_offset",
];

/// One synthetic volunteer host: 16 skewed, partially correlated attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Physical CPU cores (1–16, Zipf-popular at 1–2).
    pub cpu_cores: u64,
    /// Clock speed in MHz.
    pub cpu_mhz: u64,
    /// RAM in MB, snapped to power-of-two ladders.
    pub ram_mb: u64,
    /// Swap in MB (correlated with RAM).
    pub swap_mb: u64,
    /// Total disk in GB (log-normal).
    pub disk_gb: u64,
    /// Free disk in GB (fraction of total).
    pub disk_free_gb: u64,
    /// Downstream bandwidth in kb/s (bimodal: DSL vs LAN).
    pub bandwidth_down_kbps: u64,
    /// Upstream bandwidth in kb/s.
    pub bandwidth_up_kbps: u64,
    /// OS family code (0 = Windows, 1 = Linux, 2 = macOS, 3 = other).
    pub os_family: u64,
    /// CPU vendor code (0 = Intel, 1 = AMD, 2 = other).
    pub cpu_vendor: u64,
    /// Whetstone-style float benchmark (MIPS, correlated with MHz × cores).
    pub fpops_mips: u64,
    /// Dhrystone-style int benchmark (MIPS).
    pub iops_mips: u64,
    /// Memory bandwidth (MB/s).
    pub mem_bw_mbps: u64,
    /// Mean uptime per session (hours, log-normal).
    pub uptime_hours: u64,
    /// Fraction of wall-clock the host is available (0–100).
    pub availability_pct: u64,
    /// Timezone offset in hours + 12 (0–24 — roughly population-weighted).
    pub timezone_offset: u64,
}

impl Host {
    /// The attribute vector in [`ATTRIBUTE_NAMES`] order — ready for
    /// [`attrspace::Space::point`].
    pub fn to_values(&self) -> Vec<u64> {
        vec![
            self.cpu_cores,
            self.cpu_mhz,
            self.ram_mb,
            self.swap_mb,
            self.disk_gb,
            self.disk_free_gb,
            self.bandwidth_down_kbps,
            self.bandwidth_up_kbps,
            self.os_family,
            self.cpu_vendor,
            self.fpops_mips,
            self.iops_mips,
            self.mem_bw_mbps,
            self.uptime_hours,
            self.availability_pct,
            self.timezone_offset,
        ]
    }
}

/// Deterministic, seedable generator of [`Host`]s; implements [`Iterator`].
#[derive(Debug)]
pub struct HostGenerator {
    rng: StdRng,
    cores: Zipf,
    os: CategoricalU64,
    vendor: CategoricalU64,
    tz: CategoricalU64,
}

impl HostGenerator {
    /// Creates a generator; equal seeds yield equal host sequences.
    pub fn new(seed: u64) -> Self {
        HostGenerator {
            rng: StdRng::seed_from_u64(seed),
            // ranks 0..5 → 1,2,4,8,16 cores; exponent tuned so ~60% 1-core.
            cores: Zipf::new(5, 1.6),
            // 2000s BOINC: Windows-dominated.
            os: CategoricalU64::new(&[(0, 0.87), (1, 0.08), (2, 0.04), (3, 0.01)]),
            vendor: CategoricalU64::new(&[(0, 0.72), (1, 0.26), (2, 0.02)]),
            tz: CategoricalU64::new(&[
                (7, 0.05), // UTC-5 … dense North-America/Europe band
                (6, 0.10),
                (5, 0.15),
                (4, 0.10),
                (10, 0.08),
                (11, 0.12),
                (12, 0.20), // UTC 0
                (13, 0.12),
                (14, 0.05),
                (20, 0.02),
                (21, 0.01),
            ]),
        }
    }

    fn gen_host(&mut self) -> Host {
        let rng = &mut self.rng;
        let cores = 1u64 << self.cores.sample(rng); // 1,2,4,8,16
        let mhz = (lognormal(rng, 7.7, 0.35).clamp(300.0, 6_000.0)) as u64; // ~2.2 GHz median
                                                                            // RAM: ladder of powers of two, correlated with cores.
        let ram_exp = ((lognormal(rng, 0.0, 0.5) * 512.0 * cores as f64).log2())
            .round()
            .clamp(7.0, 16.0);
        let ram_mb = 1u64 << ram_exp as u32;
        let swap_mb = ram_mb * if rng.gen_bool(0.7) { 2 } else { 1 };
        let disk_gb = (lognormal(rng, 4.4, 0.8).clamp(4.0, 4_000.0)) as u64; // median ~80 GB
        let disk_free_gb = (disk_gb as f64 * rng.gen_range(0.05..0.9)) as u64;
        // Bandwidth: 85% consumer DSL, 15% campus/LAN hosts.
        let (down, up) = if rng.gen_bool(0.85) {
            let d = lognormal(rng, 7.0, 0.5).clamp(128.0, 10_000.0); // ~1.1 Mb/s
            (d as u64, (d / rng.gen_range(4.0..12.0)) as u64)
        } else {
            let d = lognormal(rng, 10.5, 0.4).clamp(10_000.0, 1_000_000.0);
            (d as u64, (d / 2.0) as u64)
        };
        let os_family = self.os.sample(rng);
        let cpu_vendor = self.vendor.sample(rng);
        // Benchmarks correlate with clock and core count, with noise.
        let fpops = (mhz as f64 * rng.gen_range(0.6..1.2)) as u64;
        let iops = (mhz as f64 * rng.gen_range(0.9..1.8)) as u64;
        let mem_bw = (ram_mb as f64).sqrt() as u64 * (100 + rng.gen_range(0..100u64));
        let uptime_hours = (lognormal(rng, 2.0, 1.0).clamp(0.0, 2_000.0)) as u64; // median ~7h
        let availability_pct =
            (100.0 * (1.0 - (-(uptime_hours as f64) / 24.0).exp())).clamp(1.0, 100.0) as u64;
        let timezone_offset = self.tz.sample(rng);

        Host {
            cpu_cores: cores,
            cpu_mhz: mhz,
            ram_mb,
            swap_mb,
            disk_gb,
            disk_free_gb,
            bandwidth_down_kbps: down,
            bandwidth_up_kbps: up,
            os_family,
            cpu_vendor,
            fpops_mips: fpops,
            iops_mips: iops,
            mem_bw_mbps: mem_bw,
            uptime_hours,
            availability_pct,
            timezone_offset,
        }
    }
}

impl Iterator for HostGenerator {
    type Item = Host;

    fn next(&mut self) -> Option<Host> {
        Some(self.gen_host())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u64) -> Vec<Host> {
        HostGenerator::new(seed).take(n).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(sample(50, 9), sample(50, 9));
        assert_ne!(sample(50, 9), sample(50, 10));
    }

    #[test]
    fn sixteen_attributes_in_declared_order() {
        let h = sample(1, 0).pop().unwrap();
        let v = h.to_values();
        assert_eq!(v.len(), ATTRIBUTE_NAMES.len());
        assert_eq!(v[0], h.cpu_cores);
        assert_eq!(v[8], h.os_family);
        assert_eq!(v[15], h.timezone_offset);
    }

    #[test]
    fn marginals_are_skewed_like_boinc() {
        let hosts = sample(5_000, 1);
        let one_core = hosts.iter().filter(|h| h.cpu_cores == 1).count();
        assert!(one_core > 2_500, "1-core hosts dominate: {one_core}");
        let windows = hosts.iter().filter(|h| h.os_family == 0).count();
        assert!(windows > 4_000, "windows dominates: {windows}");
        // Disk sizes heavy-tailed: p99 well above median.
        let mut disks: Vec<u64> = hosts.iter().map(|h| h.disk_gb).collect();
        disks.sort_unstable();
        let median = disks[disks.len() / 2];
        let p99 = disks[disks.len() * 99 / 100];
        assert!(p99 > 5 * median, "disk tail: median {median}, p99 {p99}");
    }

    #[test]
    fn correlations_hold_in_aggregate() {
        let hosts = sample(4_000, 2);
        let avg_ram = |pred: &dyn Fn(&Host) -> bool| {
            let sel: Vec<&Host> = hosts.iter().filter(|h| pred(h)).collect();
            sel.iter().map(|h| h.ram_mb).sum::<u64>() as f64 / sel.len().max(1) as f64
        };
        let small = avg_ram(&|h| h.cpu_cores <= 2);
        let big = avg_ram(&|h| h.cpu_cores >= 8);
        assert!(big > 2.0 * small, "RAM grows with cores: {small} vs {big}");
    }

    #[test]
    fn ram_is_power_of_two() {
        for h in sample(500, 3) {
            assert!(h.ram_mb.is_power_of_two(), "{}", h.ram_mb);
            assert!((128..=65536).contains(&h.ram_mb));
        }
    }
}
