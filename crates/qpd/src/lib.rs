//! # qpd — quasiprobability decomposition framework
//!
//! Implements Section II-B/C of Bechtold et al. (IPPS 2024): QPD
//! coefficient structures with their sampling overhead `κ = Σ|cᵢ|`
//! (Eq. 11–13), Monte Carlo estimators in both the stochastic (Eq. 12)
//! and the paper's proportional-allocation form, shot allocators, and a
//! checkpointed sweep producing full error-vs-shots curves in one pass.
//!
//! The crate is deliberately agnostic of *what* the terms are: every
//! estimator takes a slice of one [`TermSampler`] type. A ±1 term's law
//! is fixed by its exact value, so a term needs nothing more than
//! [`BernoulliTerm`], the law that value fixes. Every wire-cut term of
//! the `wirecut` crate — a single-wire cut, a multi-wire or joint cut, a
//! compiled cut plan — is one: its subcircuit is simulated once for the
//! exact value, and only the law is kept.
//! [`BernoulliTerm::sample_batch`] draws a whole batch of them, one
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
