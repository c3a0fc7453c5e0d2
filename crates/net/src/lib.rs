//! # teamnet-net
//!
//! The message-passing substrate of the TeamNet (ICDCS 2019) reproduction.
//! The paper runs three communication stacks — raw TCP sockets (TeamNet
//! itself), MPI (the model-parallel baselines) and gRPC (SG-MoE-G); here
//! every strategy runs the one enveloped round of `teamnet-core` over a
//! [`Transport`], so what a comparison measures is the strategy's message
//! pattern, not a second stack (DESIGN.md §2).
//!
//! * [`Transport`] — `(source, tag)`-matched point-to-point messaging with
//!   two implementations: [`ChannelTransport`] (in-process, used by the
//!   simulator and tests) and [`TcpTransport`] (framed sockets over real
//!   TCP, loopback or multi-host);
//! * [`ChaosTransport`] — seeded, deterministic fault injection (drop /
//!   delay / corruption / duplication / black-holing) for resilience
//!   tests;
//! * [`Envelope`] — versioned, round-stamped, CRC-checked message
//!   envelopes for the fault-tolerant inference protocol;
//! * [`Clock`] — the injectable time source every protocol deadline is
//!   read on ([`SystemClock`] in production, [`ManualClock`] in tests);
//! * [`codec`] — the wire formats, including the raw-`f32` tensor payload
//!   encoding whose byte counts drive the WiFi cost model, and
//!   [`codec::Reader`], the bounds-checked cursor every variable-length
//!   payload is read through.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use teamnet_net::{ChannelTransport, Envelope, PayloadKind, Tag, Transport};
//!
//! // A 2-node in-process cluster: node 0 sends node 1 a round-stamped,
//! // CRC-checked frame.
//! let nodes = ChannelTransport::mesh(2);
//! let frame = Envelope::new(7, PayloadKind::Input, b"sensor data".to_vec()).encode();
//! nodes[0].send(1, Tag(1), &frame).unwrap();
//! let got = nodes[1].recv(0, Tag(1), Duration::from_secs(1)).unwrap();
//! let env = Envelope::decode(&got).unwrap();
//! assert_eq!((env.round, env.payload.as_slice()), (7, &b"sensor data"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod codec;
mod crc;
mod envelope;
mod error;
mod faults;
mod mailbox;
mod tcp;
mod transport;

pub use clock::{deadline_after, Clock, ManualClock, SystemClock};
pub use crc::{crc32, Crc32};
pub use envelope::{
    derive_trace_id, peek_round, peek_trace, Envelope, EnvelopeRef, PayloadKind, TraceContext,
    ENVELOPE_HEADER_LEN, ENVELOPE_VERSION, FLAG_TRACE, TRACE_EXT_LEN,
};
pub use error::NetError;
pub use faults::{plan_fates, ChaosConfig, ChaosTransport, FaultFate};
pub use mailbox::Mailbox;
pub use tcp::TcpTransport;
pub use transport::{ChannelTransport, NodeId, Tag, Transport, TransportStats};
