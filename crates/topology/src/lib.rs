//! AS-level Internet topology for the `quicksand` workspace.
//!
//! This crate provides the substrate the paper's measurements run over:
//!
//! * [`AsGraph`] — an AS-level graph annotated with business
//!   relationships (customer–provider and peer–peer), the standard model
//!   of interdomain routing policy since Gao (2001).
//! * [`TopologyGenerator`] — a seeded generator producing tiered,
//!   power-law-ish topologies (tier-1 clique, transit tiers, stubs,
//!   hosting ASes) that reproduce the path-length and path-diversity
//!   regimes of the 2014 Internet at configurable scale.
//! * [`RoutingTree`] — per-destination Gao–Rexford policy routing
//!   (prefer customer > peer > provider, then shortest AS-path, then a
//!   deterministic tie-break), computed with the classic three-phase BFS.
//! * [`infer`] — Gao's relationship-inference algorithm (the paper's
//!   reference \[18\]), rebuilt from AS paths so its accuracy can be
//!   validated against the generator's ground truth.
//!
//! Everything is deterministic given a seed, per the workspace's
//! reproducibility rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod graph;
pub mod infer;
pub mod probe;
mod routing;

pub use gen::{GeneratedTopology, TopologyConfig, TopologyGenerator};
pub use graph::{AsGraph, AsGraphError, Relationship, Tier};
pub use routing::{
    CoreView, ReconvergeScratch, RouteClass, RoutingTree, StoredSet, TRACE_UNROUTED,
};
