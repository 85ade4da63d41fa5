//! The benchmark's workloads: a fleet, a transport, a warm prefix and a
//! fixed offered rate each.

use ars_workload::FleetConfig;

/// How the fixed-rate phase reaches the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Direct `SessionManager` calls behind the benchmark's own mutex.
    InProcess,
    /// An `ars-serve` `FleetServer` driven through `HttpBackend`.
    Http,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub transport: Transport,
    /// The fleet, in the `ars-workload` config format (its seed is replaced
    /// by the run's `--seed`).
    fleet: &'static str,
    /// Batches every tenant ingests before the snapshot.
    pub warm_rounds: usize,
    /// Offered requests per second in the fixed-rate phase: well below the
    /// rate at which the load generator falls behind on a 2-core machine
    /// (see `NOTES.md` for the probes and why each rate was chosen).
    pub rate_rps: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "f0-adversarial",
        transport: Transport::InProcess,
        fleet: include_str!("../fleets/f0.json"),
        warm_rounds: 20,
        rate_rps: 100.0,
    },
    Workload {
        name: "fp2-exhaust",
        transport: Transport::InProcess,
        fleet: include_str!("../fleets/fp2.json"),
        warm_rounds: 60,
        rate_rps: 100.0,
    },
    Workload {
        name: "f0-http-reads",
        transport: Transport::Http,
        fleet: include_str!("../fleets/f0-http.json"),
        warm_rounds: 120,
        rate_rps: 300.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The fleet config with its master seed set to `seed`.
    pub fn config(&self, seed: u64) -> FleetConfig {
        let mut config = FleetConfig::try_from_json(self.fleet)
            .unwrap_or_else(|err| panic!("built-in fleet of {} is invalid: {err}", self.name));
        config.seed = seed;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_built_in_fleet_parses() {
        for workload in WORKLOADS {
            assert!(workload.config(1).total_tenants() > 0, "{}", workload.name);
        }
    }
}
