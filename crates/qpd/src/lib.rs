//! # qpd — quasiprobability decomposition framework
//!
//! Implements Section II-B/C of Bechtold et al. (IPPS 2024): QPD
//! coefficient structures with their sampling overhead `κ = Σ|cᵢ|`
//! (Eq. 11–13), Monte Carlo estimators in both the stochastic (Eq. 12)
//! and the paper's proportional-allocation form, shot allocators, and a
//! checkpointed sweep producing full error-vs-shots curves in one pass.
//!
//! The crate is deliberately agnostic of *what* the terms are: executable
//! terms implement [`TermSampler`] (in this workspace, compiled wire-cut
//! subcircuits from the `wirecut` crate). A term whose exact value is
//! known needs nothing more than [`BernoulliTerm`], the ±1 law that
//! value fixes; every compiled cut plan's terms are `BernoulliTerm`s,
//! and [`BernoulliTerm::sample_batch`] draws a whole batch of them, one
//! counter-based lane per term.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocator;
pub mod estimator;
pub mod spec;

pub use allocator::{
    largest_remainder, neyman_allocation, stochastic_allocation, Allocator, SequentialAllocator,
};
pub use estimator::{
    estimate_allocated, estimate_sequential, estimate_stochastic, estimate_with_allocation,
    exact_value, proportional_sweep, BernoulliTerm, TermSampler,
};
pub use spec::{QpdSpec, TermSpec};
