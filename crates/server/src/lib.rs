//! # axml-server — the Positive AXML engine, served
//!
//! A TCP front door for the [`axml_core`] engine: line-delimited JSON
//! frames (the versioned wire protocol specified normatively in
//! `docs/protocol.md`), named sessions over shared AXML
//! [`System`](axml_core::System)s, dataloader-style request
//! **batching**, and streaming **subscriptions** that push fixpoint
//! deltas round by round. The paper frames active documents as
//! services exchanged over the web (Abiteboul/Benjelloun/Milo, PODS
//! 2004 §1); this crate is that web-facing half: documents evolve
//! server-side while clients query and observe them.
//!
//! Three layers:
//!
//! * [`protocol`] — the frame types ([`protocol::Request`],
//!   [`protocol::Response`]), their JSON encode/parse, and the error
//!   codes; the Rust image of `docs/protocol.md`;
//! * [`server`] — sessions, admission control, the batching serve
//!   loop, subscriptions, and the [`server::SharedSink`] that funnels
//!   server trace events into the core observability stack (the
//!   `server:` report line and the Chrome-trace server lane);
//! * [`load`] — the `axml-load` closed-loop generator and the
//!   [`load::Client`] helper, which the end-to-end tests and the X19
//!   experiment reuse.
//!
//! Two binaries ship with the crate: `axml-server` (serve) and
//! `axml-load` (drive); `docs/server.md` is the operator guide.
//!
//! # A complete client session
//!
//! ```
//! use axml_server::load::Client;
//! use axml_server::protocol::{Request, Response};
//! use axml_server::server::{Server, ServerConfig};
//!
//! // An in-process server on an ephemeral port.
//! let mut handle = Server::spawn("127.0.0.1:0", ServerConfig::default())?;
//!
//! // Connect (the Client sends `hello` for us), open a session with
//! // Example 3.2's transitive-closure system, and run it to fixpoint.
//! let mut c = Client::connect(&handle.addr().to_string())?;
//! let resp = c.call(&Request::Open {
//!     id: 1,
//!     session: "demo".into(),
//!     docs: vec![(
//!         "edges".into(),
//!         r#"r{t{from{"1"},to{"2"}}, t{from{"2"},to{"3"}}, @tc}"#.into(),
//!     )],
//!     services: vec![(
//!         "tc".into(),
//!         "t{from{$x},to{$y}} :- edges/r{t{from{$x},to{$z}}, t{from{$z},to{$y}}}".into(),
//!     )],
//! })?;
//! assert!(matches!(resp, Response::OpenOk { .. }));
//! let resp = c.call(&Request::Run { id: 2, session: "demo".into(), mode: None, max_invocations: None })?;
//! assert!(matches!(resp, Response::RunOk { ref status, .. } if status == "terminated"));
//!
//! // Query the fixpoint: the derived closure edge 1 → 3 is there.
//! let resp = c.call(&Request::Query {
//!     id: 3,
//!     session: "demo".into(),
//!     query: "hit{$y} :- edges/r{t{from{\"1\"},to{$y}}}".into(),
//! })?;
//! let Response::Answers { trees, .. } = resp else { panic!("expected answers") };
//! assert!(trees.contains(&r#"hit{"3"}"#.to_string()));
//!
//! handle.shutdown();
//! drop(c); // disconnect so join() returns
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use protocol::{ProtoError, Request, Response, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerHandle, SharedSink};
