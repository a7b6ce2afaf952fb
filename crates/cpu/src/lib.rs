//! Out-of-order core model and functional emulator for the REST
//! simulator.
//!
//! The paper evaluates REST in gem5's out-of-order x86 model (Table II:
//! 8-wide, 192-entry ROB, 64-entry IQ, 32-entry LQ/SQ, L-TAGE). This
//! crate rebuilds that pipeline from scratch using the standard
//! *trace-driven timing* construction:
//!
//! 1. The [`Emulator`] executes the guest program functionally, ahead of
//!    the pipeline, resolving memory addresses and branch outcomes and
//!    invoking the [`rest_runtime::Runtime`] for `ecall`s. It emits a
//!    stream of oracle [`rest_isa::DynInst`]s — including the micro-ops
//!    injected by ASan instrumentation and by runtime services — and
//!    decides program-visible REST/ASan violations architecturally.
//! 2. The [`Pipeline`] replays that stream through fetch (branch
//!    predictor + I-cache), dispatch (ROB/IQ/LQ/SQ occupancy), issue
//!    (register dependencies, functional units, memory disambiguation
//!    with store-to-load forwarding and the REST forwarding rules of
//!    Table I), execution against the [`rest_mem::Hierarchy`], and
//!    in-order commit with the secure/debug store-commit policies.
//!
//! [`System`] glues the two together and produces a [`SimResult`] with
//! the cycle count and every statistic the paper's evaluation quotes
//! (ROB-blocked-by-store cycles, IQ-full cycles, token traffic at the
//! L2/memory interface, …).

#![forbid(unsafe_code)]

mod bpred;
mod config;
mod emulator;
mod exec;
mod pipeline;
mod profile;
mod ring;
mod stats;
mod superblock;
mod system;
mod trace;

pub use bpred::BranchPredictor;
pub use config::{CoreConfig, ExecTier, SimConfig};
pub use emulator::{Emulator, StopReason};
pub use exec::ExecEngine;
pub use pipeline::Pipeline;
pub use profile::{CheckCounters, GuestProfile, PcCounters};
pub use stats::{stats_map_parts, CoreStats, SimResult, ALLOC_KEY_COUNT, CORE_KEY_COUNT};
pub use system::System;
pub use trace::{PipelineTrace, TraceEntry};
