//! Time-series compression (§3, Fig. 3 of the paper).
//!
//! The ODH compressor is *data-variability-aware*: smooth tag columns
//! (low-frequency sensors) go through **linear compression** — the
//! swinging-door descendant of Hale & Sellars' 1981 process-historian
//! algorithm the paper cites — while fluctuating columns (high-frequency
//! sensors) go through **quantization**, a many-to-few mapping onto k-bit
//! codes. Both support lossless operation and lossy operation with a hard
//! per-point error bound. Lossless floating-point columns additionally use
//! Gorilla-style XOR compression, and timestamps use delta-of-delta varints
//! (regular series collapse to ~1 byte per point; RTS batches drop them
//! entirely).
//!
//! Modules:
//! - [`bits`]: bit-granular writer/reader;
//! - [`varint`]: LEB128 + zigzag integers;
//! - [`delta`]: delta-of-delta timestamp codec;
//! - [`linear`]: swinging-door trending with guaranteed max deviation;
//! - [`quantize`]: uniform quantizer with error bound (the paper's
//!   "4-to-16-fold" code shrink);
//! - [`xor`]: Gorilla XOR lossless float codec;
//! - [`variability`]: the fluctuation score driving codec selection;
//! - [`mod@column`]: the policy-driven column codec used by ValueBlobs;
//! - [`scratch`]: reusable staging buffers for the zero-allocation
//!   `*_into` entry points;
//! - [`mod@reference`]: the original byte-at-a-time implementations, kept as
//!   the executable format specification and bench baseline.
//!
//! Every codec exposes two API shapes: an `*_into` form that appends into
//! caller-owned buffers (allocation-free at steady state, used by the
//! seal pipeline and decode cache), and a thin allocating wrapper with
//! the historical signature.

pub mod bits;
pub mod column;
pub mod delta;
pub mod linear;
pub mod quantize;
pub mod reference;
pub mod scratch;
pub mod variability;
pub mod varint;
pub mod xor;

pub use column::{decode_column, decode_column_into, encode_column, encode_column_into};
pub use column::{Codec, Policy};
pub use scratch::Scratch;
