//! `tia-store` — the content-addressed measurement store.
//!
//! The design-space sweeps of this repository are memoized
//! computations: every measurement is a pure function of its inputs
//! (workload, ISA [`Params`](../tia_isa), microarchitecture
//! configuration, input scale). This crate supplies the substrate
//! that makes those measurements *durable* and *addressable by
//! content* rather than by however some serializer happened to format
//! the inputs:
//!
//! * [`canon`] — a canonical deterministic encoding of
//!   [`serde::Value`] trees: sorted object keys, integers normalized
//!   across the stub-serde `Int`/`UInt` arms, floats as normalized
//!   IEEE-754 bit patterns (no decimal formatting anywhere), and an
//!   explicit schema version folded into every hash. Two semantically
//!   equal inputs hash identically; any schema bump invalidates every
//!   old key at once.
//! * [`hash`] — a dependency-free FIPS 180-4 SHA-256 and the 256-bit
//!   [`Hash`] key type, stable across builds (unlike
//!   `std::hash::DefaultHasher`, which is documented to change).
//! * [`log`] — an embedded append-only keyed store: one log file plus
//!   an in-memory index, with per-record digests so a torn tail from
//!   a killed process is dropped on open while every earlier record
//!   survives, and a sibling lock file so concurrent sweep processes
//!   can share one store.
//!
//! Like `tia-par`, the crate is std-only (the `serde` dependency is
//! the workspace's vendored stub, used purely as the value data
//! model). Higher layers (`tia-bench`'s run store) define what goes into
//! a key; this crate only promises that equal content means equal
//! key and that what was stored comes back byte-identical.

pub mod canon;
pub mod hash;
pub mod log;

pub use canon::{
    canonical_bytes, canonical_f64_bits, canonical_hash, from_canonical_bytes, CanonError,
    DecodeError, CANON_VERSION,
};
pub use hash::{sha256, Hash, Sha256};
pub use log::{Store, StoreError, STORE_FORMAT_VERSION, STORE_MAGIC};
