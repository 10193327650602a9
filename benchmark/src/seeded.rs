//! The ten Table 3 workloads with inputs drawn from the benchmark's
//! seed instead of the paper's fixed ones.
//!
//! Seed 0 keeps every module's own (paper) seed, so it reproduces the
//! inputs behind `results/`. Any other seed is mixed into each module's
//! seed, which gives inputs that were not used while the simulator was
//! tuned. `gcd` and `stream` draw nothing at random, so every seed
//! gives them the same inputs.

use tia_fabric::ProcessingElement;
use tia_isa::Params;
use tia_workloads::{
    arg_max, bst, dot_product, filter, gcd, mean, merge, stream, string_search, udiv, Built,
    PeFactory, Scale, WorkloadError, WorkloadKind,
};

/// SplitMix64's output function.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A module's input seed under benchmark seed `seed`.
pub fn mix(module_seed: u64, seed: u64) -> u64 {
    if seed == 0 {
        module_seed
    } else {
        splitmix64(module_seed ^ splitmix64(seed))
    }
}

/// A generator of derived values for the benchmark's own fabrics.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(mix(salt, seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Builds `kind` at `scale` with inputs drawn from `seed`.
///
/// # Errors
///
/// Propagates the workload builder's assembly, validation and wiring
/// errors.
pub fn build<P, F>(
    kind: WorkloadKind,
    scale: Scale,
    seed: u64,
    params: &Params,
    factory: &mut F,
) -> Result<Built<P>, WorkloadError>
where
    P: ProcessingElement,
    F: PeFactory<P>,
{
    macro_rules! seeded {
        ($module:ident, $config:ident) => {{
            let base = match scale {
                Scale::Test => $module::$config::test(),
                Scale::Paper => $module::$config::paper(),
            };
            let config = $module::$config {
                seed: mix(base.seed, seed),
                ..base
            };
            $module::build(params, &config, factory)
        }};
    }
    match kind {
        WorkloadKind::Bst => seeded!(bst, BstConfig),
        WorkloadKind::Mean => seeded!(mean, MeanConfig),
        WorkloadKind::ArgMax => seeded!(arg_max, ArgMaxConfig),
        WorkloadKind::DotProduct => seeded!(dot_product, DotProductConfig),
        WorkloadKind::Filter => seeded!(filter, FilterConfig),
        WorkloadKind::Merge => seeded!(merge, MergeConfig),
        WorkloadKind::StringSearch => seeded!(string_search, StringSearchConfig),
        WorkloadKind::Udiv => seeded!(udiv, UdivConfig),
        WorkloadKind::Gcd => {
            let config = match scale {
                Scale::Test => gcd::GcdConfig::test(),
                Scale::Paper => gcd::GcdConfig::paper(),
            };
            gcd::build(params, &config, factory)
        }
        WorkloadKind::Stream => {
            let config = match scale {
                Scale::Test => stream::StreamConfig::test(),
                Scale::Paper => stream::StreamConfig::paper(),
            };
            stream::build(params, &config, factory)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_paper_seed() {
        assert_eq!(mix(0xb57, 0), 0xb57);
        assert_ne!(mix(0xb57, 1), 0xb57);
        assert_ne!(mix(0xb57, 1), mix(0xb57, 2));
    }
}
