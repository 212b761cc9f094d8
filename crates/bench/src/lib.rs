//! The `rsmem bench` harness: a fingerprinted, min-of-N benchmark suite
//! with a regression gate (see [`harness`]).

pub mod harness;
