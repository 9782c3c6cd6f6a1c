//! End-to-end benchmark of the rtlsat default solve path: one-shot
//! search, incremental BMC sessions and the inline serve loop, driven
//! only through the crates' public functions. See `README.md`.

pub mod bmc;
pub mod harness;
pub mod layers;
pub mod oneshot;
pub mod outcome;
pub mod pool;
pub mod serve_inline;
