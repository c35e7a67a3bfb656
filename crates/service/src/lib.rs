//! **pc-service** — serving the Probable Cause attack database.
//!
//! The paper's attacker workflows (characterize, identify, cluster) are
//! batch algorithms; this crate turns them into a long-lived, std-only TCP
//! service so a database built over months of supply-chain interception can
//! answer identification queries online:
//!
//! - [`protocol`]: the JSON request/response vocabulary.
//! - [`codec`]: 4-byte length-prefixed framing with an enforced frame cap.
//! - [`store`]: one fingerprint database, routed by the core
//!   [`probable_cause::LshIndex`] so a query pays full modified-Jaccard
//!   distance only against fingerprints it shares a band key with.
//! - [`pool`]: a bounded submission queue (explicit `busy` backpressure)
//!   and one dispatcher, which answers every job in admission order.
//! - [`server`]: the accept loop, per-connection reader/writer threads, and
//!   graceful drain-on-shutdown with database + index persistence.
//! - [`client`]: a blocking client (`pc query` and the tests).
//! - [`ring`]: the deterministic rendezvous ranking of replicas, health
//!   hysteresis, and per-replica pending-write journal primitives.
//! - [`router`]: the `pc route` tier — failover reads, write fan-out with
//!   journal replay on replica rejoin, load shedding.
//!
//! # Quickstart
//!
//! ```
//! use pc_service::{client::ServiceClient, protocol::{Request, Response}, server};
//! use probable_cause::ErrorString;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = server::start(server::ServerConfig::default())?;
//! let mut client = ServiceClient::connect(handle.local_addr())?;
//!
//! let errors = ErrorString::from_sorted(vec![3, 17, 40], 4096)?;
//! client.call(&Request::Characterize { label: "chip-A".into(), errors: errors.clone() })?;
//! match client.call(&Request::Identify { errors })? {
//!     Response::Match { label, .. } => assert_eq!(label, "chip-A"),
//!     other => panic!("expected a match, got {other:?}"),
//! }
//! handle.shutdown_and_wait()?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod codec;
pub mod pool;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod server;
pub mod store;

pub use client::{ClientError, ConnectOptions, RetryPolicy, ServiceClient};
pub use codec::{
    read_frame, read_frame_guarded, write_frame, CodecError, ReadGuard, MAX_FRAME_BYTES,
};
pub use pool::{Outbound, PoolMetrics};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_request_with, encode_response,
    MetricsBody, OpLatency, ProtocolError, Request, Response, StatsBody, TraceBody, TraceRecord,
};
pub use ring::{HealthPolicy, Ring};
pub use router::{RouterConfig, RouterHandle, RouterTrigger};
pub use server::{start, ServerConfig, ServerHandle, ShutdownTrigger};
pub use store::{ShardedStore, StoreConfig};
