//! DDR5 memory-controller model for the ImPress reproduction.
//!
//! The controller sits between the system simulator (`impress_sim`) and the DRAM
//! device model ([`impress_dram`]):
//!
//! * per-bank row-buffer management with open-page, closed-page, or open-page with a
//!   maximum row-open time (the ExPress tMRO knob swept in Figure 3) — [`config`];
//! * a self-contained per-channel unit of simulated state carrying banks, refresh, the
//!   data bus, per-channel statistics and the channel's slice of defense/tracker
//!   state — [`shard`];
//! * a thin routing layer that decodes addresses, forwards each request to its
//!   [`ChannelShard`] and merges per-shard statistics — [`controller`];
//! * RFM issue every `RFMTH` activations, giving in-DRAM trackers their mitigation
//!   window;
//! * integration of the per-bank [`impress_core::BankMitigationEngine`], including the
//!   cost of mitigative victim refreshes requested by memory-controller trackers.
//!
//! The model is request-ordered rather than cycle-stepped: the system model presents
//! demand accesses in (approximate) program order and the controller computes each
//! access's completion time from the bank, bus and refresh state. This keeps full-
//! workload simulations fast while preserving the quantities the paper's figures depend
//! on: row-hit rates, activation counts, mitigation counts and queuing latency.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod controller;
pub mod request;
pub mod shard;

pub use config::{ControllerConfig, PagePolicy};
pub use controller::MemoryController;
pub use request::{AccessOutcome, MemRequest, RowBufferOutcome};
pub use shard::ChannelShard;
