//! # ligra-parallel
//!
//! Parallel-primitives substrate for the Ligra reproduction.
//!
//! The original Ligra system (Shun & Blelloch, PPoPP 2013) is built on the
//! primitives of the Problem Based Benchmark Suite (PBBS): parallel prefix
//! sums, filter/pack, reductions, and a small family of contention-aware
//! atomic operations (`CAS`, `writeMin`, `writeAdd`, `fetchOr`, and the
//! *priority update* of Shun et al., SPAA 2013). This crate implements those
//! primitives from scratch on top of [`rayon`]'s work-stealing fork-join
//! scheduler, which plays the role Cilk Plus plays in the paper.
//!
//! Everything here is deterministic-by-construction where the paper requires
//! it (scans, packs, reductions return the same result as their sequential
//! counterparts) and uses explicit memory orderings on the contended paths.
//!
//! ## Module map
//!
//! * [`utils`] — granularity control and thread-pool helpers.
//! * [`scan`] — blocked two-pass parallel prefix sums (exclusive/inclusive).
//! * [`reduce`] — parallel reductions (sum, min/max with index, count).
//! * [`pack`] — parallel filter/pack and `pack_index`.
//! * [`histogram`] — parallel bounded-key counting (degree histograms).
//! * [`atomics`] — `write_min`/`write_max`, priority update, `AtomicF64`,
//!   and slice-as-atomic views.
//! * [`bitvec`] — bit vectors: a concurrently writable one
//!   (`fetch_or`-based) and a packed single-owner [`BitSet`].
//! * [`counter`] — cache-padded per-thread event counters (telemetry).
//! * [`hash`] — deterministic avalanche hashes used by the graph generators.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomics;
pub mod bitvec;
pub mod counter;
pub mod hash;
pub mod histogram;
pub mod pack;
pub mod reduce;
pub mod scan;
pub mod utils;

pub use atomics::{priority_min, priority_write, write_max_u32, write_min_u32, AtomicF64};
pub use bitvec::{AtomicBitVec, BitSet};
pub use counter::StripedU64;
pub use hash::{hash32, hash64, mix64};
pub use pack::{filter, pack, pack_index, pack_index_bits};
pub use reduce::{max_index, min_index, reduce, sum_u64, sum_usize};
pub use scan::{plus_scan_inclusive_u32, prefix_sums, scan_exclusive, scan_inplace_exclusive};
pub use utils::{checked_u32, num_threads, with_threads, GRANULARITY};
