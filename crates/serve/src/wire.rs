//! The VHRPC wire protocol: CRC-framed binary messages whose request
//! header carries a **prefix-coded address**.
//!
//! # Frame
//!
//! ```text
//! frame   := magic · len · crc · payload
//! magic   := "VHRPC" 0x01                  (6 bytes, protocol version 1)
//! len     := u32 LE                        (payload length, ≤ 16 MiB)
//! crc     := u32 LE                        (CRC32 of payload, zlib flavour)
//! ```
//!
//! A frame defect (bad magic, oversized length, checksum mismatch) means
//! the byte stream itself can no longer be trusted, so the peer answers
//! with a [`WireStatus::BadFrame`] error frame and closes the
//! connection. Request-level problems (unknown tenant, malformed body,
//! query errors) are answered in-band and the connection stays up.
//!
//! # Address
//!
//! Every request starts with a three-segment address
//! `tenant.document.query-class`, each segment encoded as the vh-pbn
//! **order-preserving ordinal** of `len + 1` followed by the raw bytes
//! (the `+ 1` keeps the empty segment encodable — ordinal 0 is the
//! codec's reserved front marker). Two properties carry over from the
//! PBN codec:
//!
//! * encoded addresses compare in `(tenant, document, class)` order
//!   under plain `memcmp`, and
//! * a tenant's encoded first segment is a **byte prefix** of every
//!   address that routes to it — and of no other tenant's addresses,
//!   because the leading ordinal pins the segment length. The server
//!   routes with a SWAR `starts_with` over these prefixes and never has
//!   to decode the address of a request it will shed.
//!
//! # Request / response payloads
//!
//! ```text
//! request  := address · verb:u8 · body
//! response := status:u8 · body
//! str      := u32 LE length · UTF-8 bytes
//! ```

use vh_pbn::{decode_ordinal_value, encode_ordinal_value};
use vh_storage::crc::crc32;

/// Frame magic: protocol name plus version byte.
pub const MAGIC: &[u8; 6] = b"VHRPC\x01";

/// Frame header length: magic + payload length + payload CRC.
pub const HEADER_LEN: usize = 6 + 4 + 4;

/// Hard ceiling on one frame's payload (16 MiB): a length field above
/// this is a framing defect, not a request to allocate.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Longest admissible address segment, in bytes.
pub const MAX_SEGMENT: usize = 4096;

// ------------------------------------------------------------- framing ---

/// Why a frame could not be accepted from the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDefect {
    /// The first six bytes were not `VHRPC\x01`.
    BadMagic,
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
    /// The payload checksum did not match the header.
    BadCrc {
        /// CRC the header declared.
        declared: u32,
        /// CRC of the payload actually received.
        actual: u32,
    },
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameDefect::BadMagic => write!(f, "bad frame magic (want VHRPC v1)"),
            FrameDefect::Oversize(n) => {
                write!(
                    f,
                    "declared payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}"
                )
            }
            FrameDefect::BadCrc { declared, actual } => {
                write!(
                    f,
                    "payload CRC {actual:#010x} does not match header {declared:#010x}"
                )
            }
        }
    }
}

/// Wraps `payload` in a VHRPC frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame header and returns `(payload_len, declared_crc)`.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(usize, u32), FrameDefect> {
    if &header[..6] != MAGIC {
        return Err(FrameDefect::BadMagic);
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameDefect::Oversize(len));
    }
    let crc = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    Ok((len, crc))
}

/// Checks the received payload against the CRC the header declared.
pub fn verify_payload(declared: u32, payload: &[u8]) -> Result<(), FrameDefect> {
    let actual = crc32(payload);
    if actual != declared {
        return Err(FrameDefect::BadCrc { declared, actual });
    }
    Ok(())
}

// ------------------------------------------------------------- statuses ---

/// Response status byte — the wire's error-code table.
///
/// Codes 1–8 are stable: clients and the vh-vet `api-surface` lint both
/// key off this table, and the README documents it verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// The request succeeded.
    Ok,
    /// The byte stream was unframeable; the connection closes.
    BadFrame,
    /// The address was malformed or its class contradicts the verb.
    BadAddress,
    /// No registered tenant's prefix matches the address.
    UnknownTenant,
    /// The verb byte is not in the verb table.
    UnknownVerb,
    /// The verb body was malformed (bad length, bad UTF-8, bad edit).
    BadRequest,
    /// The engine rejected the query (syntax, unknown document, …).
    QueryError,
    /// The engine's own resource limits tripped mid-evaluation.
    ResourceExhausted,
    /// Admission control refused the request (quota or concurrency).
    Shed,
}

/// Every status, in wire-code order.
pub const ALL_STATUSES: [WireStatus; 9] = [
    WireStatus::Ok,
    WireStatus::BadFrame,
    WireStatus::BadAddress,
    WireStatus::UnknownTenant,
    WireStatus::UnknownVerb,
    WireStatus::BadRequest,
    WireStatus::QueryError,
    WireStatus::ResourceExhausted,
    WireStatus::Shed,
];

impl WireStatus {
    /// The status byte sent on the wire.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn code(self) -> u8 {
        match self {
            WireStatus::Ok => 0,
            WireStatus::BadFrame => 1,
            WireStatus::BadAddress => 2,
            WireStatus::UnknownTenant => 3,
            WireStatus::UnknownVerb => 4,
            WireStatus::BadRequest => 5,
            WireStatus::QueryError => 6,
            WireStatus::ResourceExhausted => 7,
            WireStatus::Shed => 8,
        }
    }

    /// Decodes a status byte.
    pub fn from_code(code: u8) -> Option<WireStatus> {
        ALL_STATUSES.into_iter().find(|s| s.code() == code)
    }

    /// Stable lowercase name, as documented in the README table.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn wire_name(self) -> &'static str {
        match self {
            WireStatus::Ok => "ok",
            WireStatus::BadFrame => "bad-frame",
            WireStatus::BadAddress => "bad-address",
            WireStatus::UnknownTenant => "unknown-tenant",
            WireStatus::UnknownVerb => "unknown-verb",
            WireStatus::BadRequest => "bad-request",
            WireStatus::QueryError => "query-error",
            WireStatus::ResourceExhausted => "resource-exhausted",
            WireStatus::Shed => "shed",
        }
    }
}

// ---------------------------------------------------------------- verbs ---

/// Request verb — the wire's operation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// XPath over the physical document; responds with the node count.
    Point,
    /// XPath over a virtual view (spec + path); responds with the count.
    Twig,
    /// FLWR query; responds with the compact-serialized result.
    Flwr,
    /// Apply one encoded [`vh_query::Edit`]; responds with the WAL seq.
    Edit,
    /// Dump the tenant engine's composite snapshot as JSON.
    Snapshot,
    /// The server's own `vh_serve_*` Prometheus exposition.
    Metrics,
}

/// Every verb, in wire-code order.
pub const ALL_VERBS: [Verb; 6] = [
    Verb::Point,
    Verb::Twig,
    Verb::Flwr,
    Verb::Edit,
    Verb::Snapshot,
    Verb::Metrics,
];

impl Verb {
    /// The verb byte sent on the wire.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn code(self) -> u8 {
        match self {
            Verb::Point => 1,
            Verb::Twig => 2,
            Verb::Flwr => 3,
            Verb::Edit => 4,
            Verb::Snapshot => 5,
            Verb::Metrics => 6,
        }
    }

    /// Decodes a verb byte.
    pub fn from_code(code: u8) -> Option<Verb> {
        ALL_VERBS.into_iter().find(|v| v.code() == code)
    }

    /// Stable lowercase name, as documented in the README table.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn wire_name(self) -> &'static str {
        match self {
            Verb::Point => "point",
            Verb::Twig => "twig",
            Verb::Flwr => "flwr",
            Verb::Edit => "edit",
            Verb::Snapshot => "snapshot",
            Verb::Metrics => "metrics",
        }
    }

    /// The query-class the address's third segment must carry: the
    /// admission controller prices classes, not individual verbs.
    pub fn class(self) -> &'static str {
        match self {
            Verb::Point | Verb::Twig | Verb::Flwr => "query",
            Verb::Edit => "edit",
            Verb::Snapshot | Verb::Metrics => "admin",
        }
    }
}

// -------------------------------------------------------------- address ---

/// A decoded `tenant.document.query-class` address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Address {
    /// First segment: selects the tenant engine.
    pub tenant: String,
    /// Second segment: the engine-registered document URI.
    pub document: String,
    /// Third segment: the admission class (`query` / `edit` / `admin`).
    pub class: String,
}

impl Address {
    /// Builds an address.
    pub fn new(
        tenant: impl Into<String>,
        document: impl Into<String>,
        class: impl Into<String>,
    ) -> Address {
        Address {
            tenant: tenant.into(),
            document: document.into(),
            class: class.into(),
        }
    }
}

/// A request-level rejection: the status to answer with, plus a human
/// message carried in the response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// The response status.
    pub status: WireStatus,
    /// Diagnostic message for the client.
    pub message: String,
}

impl Reject {
    /// Builds a rejection.
    pub fn new(status: WireStatus, message: impl Into<String>) -> Reject {
        Reject {
            status,
            message: message.into(),
        }
    }
}

/// Encodes one address segment: order-preserving ordinal of `len + 1`,
/// then the raw bytes.
pub fn encode_segment(segment: &str, out: &mut Vec<u8>) -> Result<(), Reject> {
    let bytes = segment.as_bytes();
    if bytes.len() > MAX_SEGMENT {
        return Err(Reject::new(
            WireStatus::BadAddress,
            format!(
                "address segment of {} bytes exceeds {MAX_SEGMENT}",
                bytes.len()
            ),
        ));
    }
    encode_ordinal_value(bytes.len() as u32 + 1, out)
        .map_err(|e| Reject::new(WireStatus::BadAddress, format!("segment length: {e}")))?;
    out.extend_from_slice(bytes);
    Ok(())
}

/// Decodes one segment starting at `bytes`, returning it with the number
/// of bytes consumed.
pub fn decode_segment(bytes: &[u8]) -> Result<(String, usize), Reject> {
    let (len_plus_one, ord_len) = decode_ordinal_value(bytes)
        .map_err(|e| Reject::new(WireStatus::BadAddress, format!("segment length: {e}")))?;
    let len = (len_plus_one - 1) as usize;
    if len > MAX_SEGMENT {
        return Err(Reject::new(
            WireStatus::BadAddress,
            format!("address segment of {len} bytes exceeds {MAX_SEGMENT}"),
        ));
    }
    let rest = &bytes[ord_len..];
    if rest.len() < len {
        return Err(Reject::new(
            WireStatus::BadAddress,
            "address segment truncated",
        ));
    }
    let s = std::str::from_utf8(&rest[..len])
        .map_err(|_| Reject::new(WireStatus::BadAddress, "address segment is not UTF-8"))?;
    Ok((s.to_owned(), ord_len + len))
}

impl Address {
    /// The encoded three-segment address.
    pub fn encode(&self) -> Result<Vec<u8>, Reject> {
        let mut out =
            Vec::with_capacity(self.tenant.len() + self.document.len() + self.class.len() + 6);
        encode_segment(&self.tenant, &mut out)?;
        encode_segment(&self.document, &mut out)?;
        encode_segment(&self.class, &mut out)?;
        Ok(out)
    }

    /// Just the tenant segment — the routing prefix the server matches
    /// with a SWAR `starts_with`.
    pub fn routing_prefix(tenant: &str) -> Result<Vec<u8>, Reject> {
        let mut out = Vec::with_capacity(tenant.len() + 2);
        encode_segment(tenant, &mut out)?;
        Ok(out)
    }

    /// Decodes an address from the front of a request payload, returning
    /// it with the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Address, usize), Reject> {
        let (tenant, a) = decode_segment(bytes)?;
        let (document, b) = decode_segment(&bytes[a..])?;
        let (class, c) = decode_segment(&bytes[a + b..])?;
        Ok((
            Address {
                tenant,
                document,
                class,
            },
            a + b + c,
        ))
    }
}

// ------------------------------------------------------------- requests ---

/// The verb-specific part of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// [`Verb::Point`].
    Point {
        /// XPath over the physical document.
        path: String,
    },
    /// [`Verb::Twig`].
    Twig {
        /// vDataGuide specification of the virtual view.
        spec: String,
        /// XPath over the view.
        path: String,
    },
    /// [`Verb::Flwr`].
    Flwr {
        /// FLWR query text.
        query: String,
    },
    /// [`Verb::Edit`] — the edit in its WAL payload encoding.
    Edit {
        /// `vh_query::Edit::encode()` bytes.
        payload: Vec<u8>,
    },
    /// [`Verb::Snapshot`].
    Snapshot,
    /// [`Verb::Metrics`].
    Metrics,
}

/// One decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Routing address.
    pub address: Address,
    /// Operation payload.
    pub body: RequestBody,
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn take_len(bytes: &[u8], at: &mut usize) -> Result<usize, Reject> {
    let rest = &bytes[*at..];
    if rest.len() < 4 {
        return Err(Reject::new(
            WireStatus::BadRequest,
            "length field truncated",
        ));
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    *at += 4;
    if bytes.len() - *at < len {
        return Err(Reject::new(
            WireStatus::BadRequest,
            "length-prefixed field truncated",
        ));
    }
    Ok(len)
}

fn take_bytes<'a>(bytes: &'a [u8], at: &mut usize) -> Result<&'a [u8], Reject> {
    let len = take_len(bytes, at)?;
    let out = &bytes[*at..*at + len];
    *at += len;
    Ok(out)
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, Reject> {
    let raw = take_bytes(bytes, at)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| Reject::new(WireStatus::BadRequest, "string field is not UTF-8"))
}

fn expect_end(bytes: &[u8], at: usize) -> Result<(), Reject> {
    if at != bytes.len() {
        return Err(Reject::new(
            WireStatus::BadRequest,
            format!("{} trailing bytes after request body", bytes.len() - at),
        ));
    }
    Ok(())
}

impl Request {
    /// The verb this body belongs to.
    pub fn verb(&self) -> Verb {
        match self.body {
            RequestBody::Point { .. } => Verb::Point,
            RequestBody::Twig { .. } => Verb::Twig,
            RequestBody::Flwr { .. } => Verb::Flwr,
            RequestBody::Edit { .. } => Verb::Edit,
            RequestBody::Snapshot => Verb::Snapshot,
            RequestBody::Metrics => Verb::Metrics,
        }
    }

    /// Encodes the request payload (address, verb, body — unframed).
    pub fn encode(&self) -> Result<Vec<u8>, Reject> {
        let mut out = self.address.encode()?;
        out.push(self.verb().code());
        match &self.body {
            RequestBody::Point { path } => put_str(path, &mut out),
            RequestBody::Twig { spec, path } => {
                put_str(spec, &mut out);
                put_str(path, &mut out);
            }
            RequestBody::Flwr { query } => put_str(query, &mut out),
            RequestBody::Edit { payload } => put_bytes(payload, &mut out),
            RequestBody::Snapshot | RequestBody::Metrics => {}
        }
        Ok(out)
    }

    /// Decodes a request payload. The address's class segment must match
    /// the verb's [`Verb::class`] — a mismatch is a [`WireStatus::BadAddress`],
    /// so a client cannot smuggle an edit past a query-class quota.
    pub fn decode(payload: &[u8]) -> Result<Request, Reject> {
        let (address, mut at) = Address::decode(payload)?;
        let Some(&verb_code) = payload.get(at) else {
            return Err(Reject::new(WireStatus::UnknownVerb, "missing verb byte"));
        };
        at += 1;
        let Some(verb) = Verb::from_code(verb_code) else {
            return Err(Reject::new(
                WireStatus::UnknownVerb,
                format!("unknown verb {verb_code:#04x}"),
            ));
        };
        if address.class != verb.class() {
            return Err(Reject::new(
                WireStatus::BadAddress,
                format!(
                    "address class '{}' does not admit verb '{}' (class '{}')",
                    address.class,
                    verb.wire_name(),
                    verb.class()
                ),
            ));
        }
        let body = match verb {
            Verb::Point => RequestBody::Point {
                path: take_str(payload, &mut at)?,
            },
            Verb::Twig => RequestBody::Twig {
                spec: take_str(payload, &mut at)?,
                path: take_str(payload, &mut at)?,
            },
            Verb::Flwr => RequestBody::Flwr {
                query: take_str(payload, &mut at)?,
            },
            Verb::Edit => RequestBody::Edit {
                payload: take_bytes(payload, &mut at)?.to_vec(),
            },
            Verb::Snapshot => RequestBody::Snapshot,
            Verb::Metrics => RequestBody::Metrics,
        };
        expect_end(payload, at)?;
        Ok(Request { address, body })
    }
}

// ------------------------------------------------------------ responses ---

/// One decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Point/Twig: the number of selected nodes.
    Count(u64),
    /// Flwr/Snapshot/Metrics: a text payload.
    Text(String),
    /// Edit: the WAL sequence number the edit was logged under.
    Seq(u64),
    /// Any non-`Ok` status, with its diagnostic message.
    Error {
        /// The wire status (never [`WireStatus::Ok`]).
        status: WireStatus,
        /// Diagnostic message.
        message: String,
    },
}

/// Response body tags distinguishing the `Ok` payload shapes.
const TAG_COUNT: u8 = 1;
const TAG_TEXT: u8 = 2;
const TAG_SEQ: u8 = 3;

impl Response {
    /// Encodes the response payload (status, body — unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Count(n) => {
                out.push(WireStatus::Ok.code());
                out.push(TAG_COUNT);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Seq(n) => {
                out.push(WireStatus::Ok.code());
                out.push(TAG_SEQ);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Text(s) => {
                out.push(WireStatus::Ok.code());
                out.push(TAG_TEXT);
                put_str(s, &mut out);
            }
            Response::Error { status, message } => {
                out.push(status.code());
                put_str(message, &mut out);
            }
        }
        out
    }

    /// Decodes a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, Reject> {
        let Some(&status_code) = payload.first() else {
            return Err(Reject::new(WireStatus::BadFrame, "empty response payload"));
        };
        let Some(status) = WireStatus::from_code(status_code) else {
            return Err(Reject::new(
                WireStatus::BadFrame,
                format!("unknown response status {status_code}"),
            ));
        };
        let mut at = 1;
        if status != WireStatus::Ok {
            let message = take_str(payload, &mut at)?;
            expect_end(payload, at)?;
            return Ok(Response::Error { status, message });
        }
        let Some(&tag) = payload.get(at) else {
            return Err(Reject::new(WireStatus::BadFrame, "missing response tag"));
        };
        at += 1;
        let resp = match tag {
            TAG_COUNT | TAG_SEQ => {
                let rest = &payload[at..];
                if rest.len() < 8 {
                    return Err(Reject::new(WireStatus::BadFrame, "count field truncated"));
                }
                let mut n = [0u8; 8];
                n.copy_from_slice(&rest[..8]);
                at += 8;
                let n = u64::from_le_bytes(n);
                if tag == TAG_COUNT {
                    Response::Count(n)
                } else {
                    Response::Seq(n)
                }
            }
            TAG_TEXT => Response::Text(take_str(payload, &mut at)?),
            other => {
                return Err(Reject::new(
                    WireStatus::BadFrame,
                    format!("unknown response tag {other}"),
                ))
            }
        };
        expect_end(payload, at)?;
        Ok(resp)
    }

    /// Builds an error response from a rejection.
    pub fn reject(r: Reject) -> Response {
        Response::Error {
            status: r.status,
            message: r.message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> Address {
        Address::new("acme", "books.xml", "query")
    }

    #[test]
    fn frames_round_trip() {
        let payload = b"hello world".to_vec();
        let framed = frame(&payload);
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&framed[..HEADER_LEN]);
        let (len, crc) = parse_header(&header).expect("valid header");
        assert_eq!(len, payload.len());
        verify_payload(crc, &framed[HEADER_LEN..]).expect("crc matches");
    }

    #[test]
    fn corrupt_frames_are_detected() {
        let framed = frame(b"payload");
        let mut bad = framed.clone();
        bad[0] ^= 0xFF;
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bad[..HEADER_LEN]);
        assert_eq!(parse_header(&header), Err(FrameDefect::BadMagic));

        let mut flipped = framed;
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        header.copy_from_slice(&flipped[..HEADER_LEN]);
        let (_, crc) = parse_header(&header).expect("header still fine");
        assert!(matches!(
            verify_payload(crc, &flipped[HEADER_LEN..]),
            Err(FrameDefect::BadCrc { .. })
        ));
    }

    #[test]
    fn oversize_lengths_are_rejected_before_allocation() {
        let mut header = [0u8; HEADER_LEN];
        header[..6].copy_from_slice(MAGIC);
        header[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            parse_header(&header),
            Err(FrameDefect::Oversize(_))
        ));
    }

    #[test]
    fn addresses_round_trip_and_preserve_order() {
        let encoded = addr().encode().expect("encodes");
        let (back, used) = Address::decode(&encoded).expect("decodes");
        assert_eq!(back, addr());
        assert_eq!(used, encoded.len());

        // memcmp on encoded addresses = (tenant, document, class) order.
        let a = Address::new("acme", "a.xml", "query").encode().unwrap();
        let b = Address::new("acme", "b.xml", "query").encode().unwrap();
        let c = Address::new("bcme", "a.xml", "query").encode().unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn tenant_prefix_routes_only_its_own_addresses() {
        let prefix = Address::routing_prefix("acme").expect("encodes");
        let own = Address::new("acme", "x", "query").encode().unwrap();
        let longer = Address::new("acmeX", "x", "query").encode().unwrap();
        let shorter = Address::new("acm", "x", "query").encode().unwrap();
        assert!(vh_pbn::keys::starts_with_swar(&own, &prefix));
        // The leading length ordinal keeps "acme" from matching "acmeX"
        // or "acm" — no separator byte needed.
        assert!(!vh_pbn::keys::starts_with_swar(&longer, &prefix));
        assert!(!vh_pbn::keys::starts_with_swar(&shorter, &prefix));
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request {
                address: addr(),
                body: RequestBody::Point {
                    path: "//title".into(),
                },
            },
            Request {
                address: addr(),
                body: RequestBody::Twig {
                    spec: "title { author }".into(),
                    path: "//author".into(),
                },
            },
            Request {
                address: addr(),
                body: RequestBody::Flwr {
                    query: "for $x in doc(\"a\")//b return <c/>".into(),
                },
            },
            Request {
                address: Address::new("acme", "books.xml", "edit"),
                body: RequestBody::Edit {
                    payload: vec![1, 2, 3, 250],
                },
            },
            Request {
                address: Address::new("acme", "books.xml", "admin"),
                body: RequestBody::Snapshot,
            },
            Request {
                address: Address::new("acme", "", "admin"),
                body: RequestBody::Metrics,
            },
        ];
        for req in reqs {
            let enc = req.encode().expect("encodes");
            let back = Request::decode(&enc).expect("decodes");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn class_mismatch_is_a_bad_address() {
        // An edit verb under a "query"-class address must be refused:
        // that is the hole that would let edits ride a query quota.
        let mut payload = addr().encode().unwrap();
        payload.push(Verb::Edit.code());
        put_bytes(&[1, 2, 3], &mut payload);
        let err = Request::decode(&payload).expect_err("class mismatch");
        assert_eq!(err.status, WireStatus::BadAddress);
    }

    #[test]
    fn unknown_verbs_and_trailing_bytes_are_rejected() {
        let mut payload = addr().encode().unwrap();
        payload.push(0x7F);
        let err = Request::decode(&payload).expect_err("unknown verb");
        assert_eq!(err.status, WireStatus::UnknownVerb);

        let mut ok = Request {
            address: addr(),
            body: RequestBody::Point { path: "//a".into() },
        }
        .encode()
        .unwrap();
        ok.push(0);
        let err = Request::decode(&ok).expect_err("trailing byte");
        assert_eq!(err.status, WireStatus::BadRequest);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Count(42),
            Response::Seq(7),
            Response::Text("<results/>".into()),
            Response::Error {
                status: WireStatus::Shed,
                message: "token bucket empty".into(),
            },
        ] {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).expect("decodes"), resp);
        }
    }

    #[test]
    fn verb_and_status_tables_are_dense_and_stable() {
        for (i, v) in ALL_VERBS.into_iter().enumerate() {
            assert_eq!(v.code() as usize, i + 1);
            assert_eq!(Verb::from_code(v.code()), Some(v));
        }
        for (i, s) in ALL_STATUSES.into_iter().enumerate() {
            assert_eq!(s.code() as usize, i);
            assert_eq!(WireStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(Verb::from_code(0), None);
        assert_eq!(WireStatus::from_code(9), None);
    }
}
