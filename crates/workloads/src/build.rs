//! Workload construction: built systems, verification, and errors.

use std::error::Error;
use std::fmt;

use tia_asm::AsmError;
use tia_fabric::{ProcessingElement, StopReason, System};
use tia_isa::{IsaError, Params, Program, Word};

/// Errors building, running or verifying a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// A benchmark's assembly failed to assemble (a bug in this crate).
    Assembly(AsmError),
    /// A PE, program, or wiring failed ISA validation.
    Isa(IsaError),
    /// The workload did not complete within its cycle budget.
    Timeout {
        /// The workload name.
        name: &'static str,
        /// The exhausted budget.
        max_cycles: u64,
    },
    /// A memory location did not hold the golden value after the run.
    Mismatch {
        /// The workload name.
        name: &'static str,
        /// The memory address checked.
        addr: Word,
        /// The golden value.
        expected: Word,
        /// The value found.
        found: Word,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Assembly(e) => write!(f, "benchmark assembly error: {e}"),
            WorkloadError::Isa(e) => write!(f, "benchmark validation error: {e}"),
            WorkloadError::Timeout { name, max_cycles } => {
                write!(
                    f,
                    "workload `{name}` did not complete in {max_cycles} cycles"
                )
            }
            WorkloadError::Mismatch {
                name,
                addr,
                expected,
                found,
            } => write!(
                f,
                "workload `{name}`: memory[{addr}] = {found:#x}, expected {expected:#x}"
            ),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Assembly(e) => Some(e),
            WorkloadError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AsmError> for WorkloadError {
    fn from(e: AsmError) -> Self {
        WorkloadError::Assembly(e)
    }
}

impl From<IsaError> for WorkloadError {
    fn from(e: IsaError) -> Self {
        WorkloadError::Isa(e)
    }
}

/// A factory turning an assembled [`Program`] into a processing
/// element. The functional model uses
/// `|params, program| FuncPe::new(params, program)`; the cycle-level
/// model captures a pipeline configuration in the closure.
pub trait PeFactory<P> {
    /// Builds one PE running `program`.
    fn make(&mut self, params: &Params, program: Program) -> Result<P, IsaError>;
}

impl<P, F> PeFactory<P> for F
where
    F: FnMut(&Params, Program) -> Result<P, IsaError>,
{
    fn make(&mut self, params: &Params, program: Program) -> Result<P, IsaError> {
        self(params, program)
    }
}

/// A fully wired workload ready to run.
#[derive(Debug)]
pub struct Built<P> {
    /// The spatial system (PEs, ports, streams, memory, channels).
    pub system: System<P>,
    /// Index of the designated "worker" PE whose performance counters
    /// the paper reports (Table 3).
    pub worker: usize,
    /// Golden `(address, value)` pairs the data memory must hold after
    /// the run.
    pub expected: Vec<(Word, Word)>,
    /// Cycle budget for [`Built::run_to_completion`].
    pub max_cycles: u64,
    /// Workload name (Table 3 row).
    pub name: &'static str,
}

impl<P: ProcessingElement> Built<P> {
    /// Runs the workload until every PE halts, drains in-flight memory
    /// traffic, and verifies the golden memory contents.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Timeout`] when the cycle budget is
    /// exhausted and [`WorkloadError::Mismatch`] when verification
    /// fails.
    pub fn run_to_completion(&mut self) -> Result<(), WorkloadError> {
        let reason = self.system.run(self.max_cycles);
        if reason == StopReason::CycleLimit {
            return Err(WorkloadError::Timeout {
                name: self.name,
                max_cycles: self.max_cycles,
            });
        }
        // Let tokens still travelling through channels and memory
        // ports land. Each token needs at most a couple of cycles per
        // hop and the total buffered population is bounded by the
        // queue capacities.
        self.system.run_until(|s| s.ports_idle(), 512);
        self.verify()
    }

    /// Checks the golden memory contents.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Mismatch`] for the first differing
    /// address.
    pub fn verify(&self) -> Result<(), WorkloadError> {
        for &(addr, expected) in &self.expected {
            let found = self.system.memory().read(addr);
            if found != expected {
                return Err(WorkloadError::Mismatch {
                    name: self.name,
                    addr,
                    expected,
                    found,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_convert_and_display() {
        let e: WorkloadError = IsaError::InvalidProgram("x".into()).into();
        assert!(e.to_string().contains("validation"));
        let t = WorkloadError::Timeout {
            name: "bst",
            max_cycles: 10,
        };
        assert!(t.to_string().contains("bst"));
        let m = WorkloadError::Mismatch {
            name: "gcd",
            addr: 2,
            expected: 3,
            found: 4,
        };
        assert!(m.to_string().contains("memory[2]"));
    }
}
