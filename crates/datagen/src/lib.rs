//! # haven-datagen
//!
//! The knowledge-enhanced (K) and logic-enhanced (L) dataset generation
//! flow of HaVen (paper §III-C/D, Fig. 2):
//!
//! | Fig. 2 step | Module |
//! |---|---|
//! | 4 — high-quality exemplars | [`exemplars`] |
//! | 5 — vanilla instruction–code pairs | [`corpus`] + [`augment::caption`] |
//! | 6 — parser for topic matching | [`augment::match_exemplars`] |
//! | 7 — data augmentation | [`augment::rewrite`] |
//! | 8 — verification, once per captioned sample (rewrites inherit its verdict) | [`augment::verify`] |
//! | 9–11 — logical expressions & templates | [`logic`] + [`qm`] |
//! | 12 — instruction evolution | [`evolve`] |
//!
//! [`flow::run`] chains everything and reports the funnel statistics that
//! §III-D quotes at full scale (≈550k corpus → ≈43k vanilla → ≈14k K + 5k
//! L); the default configuration runs the same funnel at 1:100 scale.

#![warn(missing_docs)]

pub mod augment;
pub mod corpus;
pub mod evolve;
pub mod exemplars;
pub mod flow;
pub mod logic;
pub mod pairs;
pub mod qm;

pub use flow::{run, FlowConfig, FlowOutput, FlowStats};
pub use pairs::{Dataset, InstructionCodePair};
