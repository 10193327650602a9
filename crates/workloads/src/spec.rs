//! The workload catalogue: one entry per Table 3 row.

use std::fmt;

use tia_fabric::ProcessingElement;
use tia_isa::Params;

use crate::build::{Built, PeFactory, WorkloadError};

/// How large a run to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Small inputs for fast unit/integration tests.
    Test,
    /// The paper-scale inputs used to regenerate figures (dynamic
    /// counts in the §3 ranges: 20,003 for `dot_product` up to
    /// ≈411,540 for `gcd`).
    Paper,
}

/// The ten microbenchmarks of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Binary search tree traversal (1 PE, memory intensive).
    Bst,
    /// Subtraction GCD (1 PE, register-register compute).
    Gcd,
    /// Array mean (1 PE, predictable loop).
    Mean,
    /// Streaming maximum index (2 PEs).
    ArgMax,
    /// Two-stream multiply-accumulate (3 PEs, tag-driven control).
    DotProduct,
    /// Threshold filter (4 PEs, data-dependent branching).
    Filter,
    /// Two-way sorted merge (3 PEs, the §2.2 example).
    Merge,
    /// Maximum-throughput sequential store loop (2 PEs).
    Stream,
    /// `"MICRO"` DFA scan (3 PEs).
    StringSearch,
    /// Software unsigned division macro (2 PEs).
    Udiv,
}

/// All workloads in the paper's Figure 4/5 presentation order.
pub const ALL_WORKLOADS: [WorkloadKind; 10] = [
    WorkloadKind::Gcd,
    WorkloadKind::Mean,
    WorkloadKind::Stream,
    WorkloadKind::ArgMax,
    WorkloadKind::StringSearch,
    WorkloadKind::Udiv,
    WorkloadKind::Bst,
    WorkloadKind::Filter,
    WorkloadKind::Merge,
    WorkloadKind::DotProduct,
];

impl WorkloadKind {
    /// The Table 3 name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Bst => "bst",
            WorkloadKind::Gcd => "gcd",
            WorkloadKind::Mean => "mean",
            WorkloadKind::ArgMax => "arg_max",
            WorkloadKind::DotProduct => "dot_product",
            WorkloadKind::Filter => "filter",
            WorkloadKind::Merge => "merge",
            WorkloadKind::Stream => "stream",
            WorkloadKind::StringSearch => "string_search",
            WorkloadKind::Udiv => "udiv",
        }
    }

    /// Looks a workload up by its Table 3 name.
    ///
    /// # Examples
    ///
    /// ```
    /// use tia_workloads::WorkloadKind;
    ///
    /// assert_eq!(WorkloadKind::from_name("merge"), Some(WorkloadKind::Merge));
    /// assert_eq!(WorkloadKind::from_name("quicksort"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        ALL_WORKLOADS.iter().copied().find(|w| w.name() == name)
    }

    /// The Table 3 description (abridged).
    pub fn description(self) -> &'static str {
        match self {
            WorkloadKind::Bst => {
                "a single PE traverses a random binary search tree in memory and \
                 stores the Boolean result of each search"
            }
            WorkloadKind::Gcd => {
                "a single PE computes a GCD chosen for long runtime with a \
                 register-register subtraction loop"
            }
            WorkloadKind::Mean => {
                "a single PE accumulates an array from memory and stores its average"
            }
            WorkloadKind::ArgMax => {
                "one PE streams an array to the worker, which stores the index of \
                 the maximum value"
            }
            WorkloadKind::DotProduct => {
                "two PEs stream integer arrays to a multiply-accumulate worker \
                 driven entirely by operand tags"
            }
            WorkloadKind::Filter => {
                "a comparator PE turns a value stream into Booleans; the worker \
                 stores values whose Boolean is set"
            }
            WorkloadKind::Merge => {
                "two PEs stream sorted lists to a merge worker that produces the \
                 combined sorted list"
            }
            WorkloadKind::Stream => {
                "the worker and a twin PE generate data/index streams to measure \
                 peak sequential-loop store throughput"
            }
            WorkloadKind::StringSearch => {
                "a reader and byte-splitter feed an ASCII stream to a DFA worker \
                 scanning for \"MICRO\""
            }
            WorkloadKind::Udiv => {
                "the worker runs a shift-subtract unsigned-division macro over \
                 streamed operand pairs"
            }
        }
    }

    /// Number of PEs in the built system (helper PEs included).
    pub fn num_pes(self) -> usize {
        match self {
            WorkloadKind::Bst | WorkloadKind::Gcd | WorkloadKind::Mean => 1,
            WorkloadKind::ArgMax | WorkloadKind::Stream | WorkloadKind::Udiv => 2,
            WorkloadKind::DotProduct | WorkloadKind::Merge | WorkloadKind::StringSearch => 3,
            WorkloadKind::Filter => 4,
        }
    }

    /// Whether the run is single-PE in the paper's taxonomy (Table 3
    /// lists bst, gcd and mean as single-PE workloads).
    pub fn is_single_pe(self) -> bool {
        self.num_pes() == 1
    }

    /// Builds this workload at the given scale over a PE factory.
    ///
    /// # Errors
    ///
    /// Propagates assembly, validation and wiring errors.
    pub fn build<P, F>(
        self,
        params: &Params,
        scale: Scale,
        factory: &mut F,
    ) -> Result<Built<P>, WorkloadError>
    where
        P: ProcessingElement,
        F: PeFactory<P>,
    {
        match self {
            WorkloadKind::Bst => {
                let cfg = match scale {
                    Scale::Test => crate::bst::BstConfig::test(),
                    Scale::Paper => crate::bst::BstConfig::paper(),
                };
                crate::bst::build(params, &cfg, factory)
            }
            WorkloadKind::Gcd => {
                let cfg = match scale {
                    Scale::Test => crate::gcd::GcdConfig::test(),
                    Scale::Paper => crate::gcd::GcdConfig::paper(),
                };
                crate::gcd::build(params, &cfg, factory)
            }
            WorkloadKind::Mean => {
                let cfg = match scale {
                    Scale::Test => crate::mean::MeanConfig::test(),
                    Scale::Paper => crate::mean::MeanConfig::paper(),
                };
                crate::mean::build(params, &cfg, factory)
            }
            WorkloadKind::ArgMax => {
                let cfg = match scale {
                    Scale::Test => crate::arg_max::ArgMaxConfig::test(),
                    Scale::Paper => crate::arg_max::ArgMaxConfig::paper(),
                };
                crate::arg_max::build(params, &cfg, factory)
            }
            WorkloadKind::DotProduct => {
                let cfg = match scale {
                    Scale::Test => crate::dot_product::DotProductConfig::test(),
                    Scale::Paper => crate::dot_product::DotProductConfig::paper(),
                };
                crate::dot_product::build(params, &cfg, factory)
            }
            WorkloadKind::Filter => {
                let cfg = match scale {
                    Scale::Test => crate::filter::FilterConfig::test(),
                    Scale::Paper => crate::filter::FilterConfig::paper(),
                };
                crate::filter::build(params, &cfg, factory)
            }
            WorkloadKind::Merge => {
                let cfg = match scale {
                    Scale::Test => crate::merge::MergeConfig::test(),
                    Scale::Paper => crate::merge::MergeConfig::paper(),
                };
                crate::merge::build(params, &cfg, factory)
            }
            WorkloadKind::Stream => {
                let cfg = match scale {
                    Scale::Test => crate::stream::StreamConfig::test(),
                    Scale::Paper => crate::stream::StreamConfig::paper(),
                };
                crate::stream::build(params, &cfg, factory)
            }
            WorkloadKind::StringSearch => {
                let cfg = match scale {
                    Scale::Test => crate::string_search::StringSearchConfig::test(),
                    Scale::Paper => crate::string_search::StringSearchConfig::paper(),
                };
                crate::string_search::build(params, &cfg, factory)
            }
            WorkloadKind::Udiv => {
                let cfg = match scale {
                    Scale::Test => crate::udiv::UdivConfig::test(),
                    Scale::Paper => crate::udiv::UdivConfig::paper(),
                };
                crate::udiv::build(params, &cfg, factory)
            }
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tia_sim::FuncPe;

    #[test]
    fn catalogue_is_complete_and_unique() {
        assert_eq!(ALL_WORKLOADS.len(), 10);
        let mut names: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn every_workload_builds_runs_and_verifies_at_test_scale() {
        let params = Params::default();
        for kind in ALL_WORKLOADS {
            let mut factory = |p: &Params, prog| FuncPe::new(p, prog);
            let mut built = kind
                .build(&params, Scale::Test, &mut factory)
                .unwrap_or_else(|e| panic!("{kind}: build failed: {e}"));
            assert_eq!(built.system.num_pes(), kind.num_pes(), "{kind}");
            built
                .run_to_completion()
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn workload_names_are_pinned() {
        // Measurement-store keys embed workload names (see
        // tia_bench::RunKey), so renaming one silently orphans every
        // stored run of it. Rename only together with a
        // MEASUREMENT_SCHEMA_VERSION bump.
        let names: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "gcd",
                "mean",
                "stream",
                "arg_max",
                "string_search",
                "udiv",
                "bst",
                "filter",
                "merge",
                "dot_product",
            ]
        );
    }

    #[test]
    fn single_pe_taxonomy_matches_table_3() {
        let single: Vec<&str> = ALL_WORKLOADS
            .iter()
            .filter(|w| w.is_single_pe())
            .map(|w| w.name())
            .collect();
        assert_eq!(single, vec!["gcd", "mean", "bst"]);
    }
}
