//! The repository benchmark: three workloads over the campaign path
//! (trace → simulate → encode → fit → estimate → persist) and the serving
//! path (HTTP → registry → coalesced sweep → response), driven from
//! outside through the program's public functions and its daemon.

pub mod campaign;
pub mod loadgen;
pub mod serving;
pub mod spans;
