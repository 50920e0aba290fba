//! Compact, order-preserving byte encoding of PBN numbers.
//!
//! §4.2 notes that "there are strategies for packing PBN numbers into as few
//! bits as possible, making PBN numbers relatively concise" (citing UTF-8 /
//! ORDPATH-style schemes). This module implements such a scheme with the two
//! properties an index needs:
//!
//! 1. **Prefix property** — the encoding of `p` is a byte-prefix of the
//!    encoding of every `p.k`, so subtree scans become byte-range scans.
//! 2. **Order preservation** — plain `memcmp` of encodings equals document
//!    order, because each component's encoding is prefix-free and
//!    numerically order-preserving across byte lengths.
//!
//! Ordinal tiers (values are the 1-based ordinals themselves):
//!
//! | first byte   | total bytes | values encoded              |
//! |--------------|-------------|-----------------------------|
//! | `0xxxxxxx`   | 1           | 1 ..= 2^7 - 1               |
//! | `10xxxxxx`   | 2           | next 2^14                   |
//! | `110xxxxx`   | 3           | next 2^21                   |
//! | `1110xxxx`   | 4           | next 2^28                   |
//! | `11110000`   | 5           | the remaining u32 range     |
//!
//! Two byte values are deliberately **never** produced by the ordinal
//! tiers and serve as markers for minted gap components (DESIGN.md §12):
//!
//! * [`FRONT_MARK`] (`0x00`) — below every ordinal. `K · 0x00 · F · 0x00`
//!   is a child of `K` minted *before* its first plain child.
//! * [`GAP_MARK`] (`0xF8`) — above every ordinal first byte (`<= 0xF0`).
//!   `enc(j) · 0xF8 · F · 0x00` sorts after the entire subtree of `j` and
//!   before `enc(j+1)`: a sibling minted *between* `j` and `j + 1`.
//!
//! First bytes `0xF1..=0xFF` other than a mid-component `0xF8` are
//! reserved and rejected ([`PbnCodecError::Reserved`]) so hostile bytes
//! can never alias a minted key.

use crate::number::{Comp, Pbn};

const T1: u64 = 1 << 7;
const T2: u64 = 1 << 14;
const T3: u64 = 1 << 21;
const T4: u64 = 1 << 28;

/// Marker byte opening the fraction of a front-gap component (`ord` 0).
/// Sorts below every ordinal encoding.
pub const FRONT_MARK: u8 = 0x00;

/// Marker byte opening the fraction of an after-gap component. Sorts above
/// every ordinal first byte and every descendant of the preceding key.
pub const GAP_MARK: u8 = 0xF8;

/// Terminator closing a fraction (fractions themselves never contain it).
pub const FRAC_END: u8 = 0x00;

/// Error describing why a byte string is not a valid PBN encoding.
///
/// Raised only on untrusted input (disk pages, wire bytes); values built
/// by [`EncodedPbn::encode`] always decode. Carries a stable code so the
/// suite-level `VhError` facade can classify it like any layer error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbnCodecError {
    /// The buffer ends in the middle of a multi-byte component or an
    /// unterminated fraction.
    Truncated {
        /// Byte offset of the truncated component's first byte.
        at: usize,
    },
    /// A five-byte component encodes a value past `u32::MAX`.
    Overflow {
        /// Byte offset of the overflowing component's first byte.
        at: usize,
    },
    /// A reserved byte pattern: a first byte in `0xF1..=0xFF` that is not
    /// a gap continuation, or an empty minted fraction.
    Reserved {
        /// Byte offset of the offending byte.
        at: usize,
    },
}

impl PbnCodecError {
    /// Stable machine-readable code for the failure class.
    pub fn code(&self) -> &'static str {
        match self {
            PbnCodecError::Truncated { .. } => "PBN_TRUNCATED",
            PbnCodecError::Overflow { .. } => "PBN_OVERFLOW",
            PbnCodecError::Reserved { .. } => "PBN_RESERVED",
        }
    }
}

impl std::fmt::Display for PbnCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PbnCodecError::Truncated { at } => {
                write!(
                    f,
                    "PBN encoding truncated inside the component at byte {at}"
                )
            }
            PbnCodecError::Overflow { at } => write!(
                f,
                "PBN component at byte {at} exceeds the 32-bit ordinal range"
            ),
            PbnCodecError::Reserved { at } => {
                write!(f, "PBN encoding uses a reserved byte pattern at byte {at}")
            }
        }
    }
}

impl std::error::Error for PbnCodecError {}

/// A PBN number in compact encoded form. Comparison (`Ord`) is a plain byte
/// comparison and equals document order.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct EncodedPbn {
    bytes: Vec<u8>,
}

impl PartialOrd for EncodedPbn {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EncodedPbn {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        crate::keys::cmp(&self.bytes, &other.bytes)
    }
}

impl EncodedPbn {
    /// Encodes a number.
    pub fn encode(pbn: &Pbn) -> Self {
        let mut bytes = Vec::with_capacity(pbn.len() + 1);
        for c in pbn.components() {
            encode_component(c, &mut bytes);
        }
        EncodedPbn { bytes }
    }

    /// Wraps raw bytes as an encoded number after validating that they
    /// parse as a well-formed component sequence. This is the entry point
    /// for untrusted input (disk pages, wire bytes).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, PbnCodecError> {
        let candidate = EncodedPbn { bytes };
        candidate.try_decode()?;
        Ok(candidate)
    }

    /// Decodes back to component form.
    ///
    /// # Panics
    /// Panics if the bytes are not a valid encoding (cannot happen for
    /// values produced by [`EncodedPbn::encode`] or accepted by
    /// [`EncodedPbn::from_bytes`]).
    #[expect(
        clippy::expect_used,
        reason = "documented panic; untrusted input goes through try_decode"
    )]
    pub fn decode(&self) -> Pbn {
        // Documented panic: trusted internal call sites only; untrusted
        // input must go through `try_decode` / `from_bytes`.
        self.try_decode()
            .expect("EncodedPbn holds a valid encoding")
    }

    /// Decodes back to component form, reporting malformed input instead
    /// of panicking.
    pub fn try_decode(&self) -> Result<Pbn, PbnCodecError> {
        decode_key(&self.bytes)
    }

    /// The encoded bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Size of the encoding in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// True if `self` encodes a (non-strict) ancestor-or-self of `other` —
    /// a byte-prefix test (excluding `other`s that continue into `self`'s
    /// sibling gap, see [`crate::keys::is_prefix`]).
    pub fn is_prefix_of(&self, other: &EncodedPbn) -> bool {
        crate::keys::is_prefix(&self.bytes, &other.bytes)
    }
}

impl std::fmt::Debug for EncodedPbn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EncodedPbn({})", self.decode())
    }
}

/// Decodes a borrowed key (typically an arena slot) into an owned number,
/// reporting malformed input instead of panicking.
pub fn decode_key(key: &[u8]) -> Result<Pbn, PbnCodecError> {
    let mut components = Vec::new();
    let mut i = 0;
    while i < key.len() {
        let (comp, used) = decode_component_checked(&key[i..], i)?;
        components.push(comp);
        i += used;
    }
    Ok(Pbn::from_comps(components))
}

/// Encodes a single component into `out`.
fn encode_component(c: &Comp, out: &mut Vec<u8>) {
    if c.ord() >= 1 {
        encode_ordinal(c.ord(), out);
    }
    let frac = c.frac();
    if !frac.is_empty() {
        out.push(if c.ord() == 0 { FRONT_MARK } else { GAP_MARK });
        out.extend_from_slice(frac);
        out.push(FRAC_END);
    }
    debug_assert!(c.ord() >= 1 || !frac.is_empty(), "ord-0 needs a fraction");
}

/// Encodes a 1-based ordinal into `out`.
pub(crate) fn encode_ordinal(c: u32, out: &mut Vec<u8>) {
    debug_assert!(c >= 1);
    let v = u64::from(c); // 1-based direct: byte 0x00 is never produced
    if v < T1 {
        out.push(v as u8);
    } else if v < T1 + T2 {
        let r = v - T1;
        out.push(0b1000_0000 | (r >> 8) as u8);
        out.push((r & 0xFF) as u8);
    } else if v < T1 + T2 + T3 {
        let r = v - T1 - T2;
        out.push(0b1100_0000 | (r >> 16) as u8);
        out.push(((r >> 8) & 0xFF) as u8);
        out.push((r & 0xFF) as u8);
    } else if v < T1 + T2 + T3 + T4 {
        let r = v - T1 - T2 - T3;
        out.push(0b1110_0000 | (r >> 24) as u8);
        out.push(((r >> 16) & 0xFF) as u8);
        out.push(((r >> 8) & 0xFF) as u8);
        out.push((r & 0xFF) as u8);
    } else {
        let r = v - T1 - T2 - T3 - T4;
        out.push(0b1111_0000);
        out.extend_from_slice(&(r as u32).to_be_bytes());
    }
}

/// Reads a fraction `F · FRAC_END` starting at `bytes[from..]`; `at` is the
/// component's absolute offset. Returns `(frac, bytes used incl. the
/// terminator)`.
fn decode_frac(bytes: &[u8], from: usize, at: usize) -> Result<(Vec<u8>, usize), PbnCodecError> {
    let Some(end) = bytes[from..].iter().position(|&b| b == FRAC_END) else {
        return Err(PbnCodecError::Truncated { at });
    };
    if end == 0 {
        return Err(PbnCodecError::Reserved { at });
    }
    Ok((bytes[from..from + end].to_vec(), end + 1))
}

/// Decodes one component from the front of `bytes`, which must be
/// non-empty; `at` is its absolute offset (for error reporting). Returns
/// `(component, bytes used)`. Bounds-checked: truncated multi-byte
/// components, unterminated fractions, five-byte values past the `u32`
/// range and reserved byte patterns are errors, never panics or silent
/// wrap-around.
fn decode_component_checked(bytes: &[u8], at: usize) -> Result<(Comp, usize), PbnCodecError> {
    let b0 = bytes[0];
    if b0 == FRONT_MARK {
        let (frac, used) = decode_frac(bytes, 1, at)?;
        return Ok((Comp::minted(0, frac), 1 + used));
    }
    if b0 > 0b1111_0000 {
        // 0xF1..=0xFF never open a component (0xF8 only *continues* one).
        return Err(PbnCodecError::Reserved { at });
    }
    let len = ordinal_len(b0);
    if bytes.len() < len {
        return Err(PbnCodecError::Truncated { at });
    }
    let (r, offset) = match len {
        1 => (u64::from(b0), 0),
        2 => ((u64::from(b0 & 0b0011_1111) << 8) | u64::from(bytes[1]), T1),
        3 => (
            (u64::from(b0 & 0b0001_1111) << 16) | (u64::from(bytes[1]) << 8) | u64::from(bytes[2]),
            T1 + T2,
        ),
        4 => (
            (u64::from(b0 & 0b0000_1111) << 24)
                | (u64::from(bytes[1]) << 16)
                | (u64::from(bytes[2]) << 8)
                | u64::from(bytes[3]),
            T1 + T2 + T3,
        ),
        _ => (
            u64::from(u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]])),
            T1 + T2 + T3 + T4,
        ),
    };
    // The component is the 1-based ordinal r + offset; it must fit u32.
    let ord = u32::try_from(r + offset).map_err(|_| PbnCodecError::Overflow { at })?;
    if bytes.get(len) == Some(&GAP_MARK) {
        let (frac, used) = decode_frac(bytes, len + 1, at)?;
        return Ok((Comp::minted(ord, frac), len + 1 + used));
    }
    Ok((Comp::new(ord), len))
}

/// Encodes one standalone 1-based ordinal with the tiered coder — the
/// public entry point for callers packing *non-PBN* values (the vh-serve
/// wire address length-prefixes its segments this way, so addresses sort
/// byte-wise like keys). Zero is not an ordinal and is rejected as
/// [`PbnCodecError::Reserved`]; everything else is a 1–5 byte encoding
/// whose `memcmp` order equals numeric order.
pub fn encode_ordinal_value(v: u32, out: &mut Vec<u8>) -> Result<(), PbnCodecError> {
    if v == 0 {
        return Err(PbnCodecError::Reserved { at: 0 });
    }
    encode_ordinal(v, out);
    Ok(())
}

/// Decodes one standalone 1-based ordinal from the front of `bytes`,
/// returning `(value, bytes used)`. The inverse of
/// [`encode_ordinal_value`]: marker and reserved first bytes are
/// rejected, truncated multi-byte tiers are [`PbnCodecError::Truncated`],
/// and — unlike the PBN component decoder — a trailing [`GAP_MARK`] is
/// *not* consumed, so the bytes after the ordinal are the caller's.
pub fn decode_ordinal_value(bytes: &[u8]) -> Result<(u32, usize), PbnCodecError> {
    let Some(&b0) = bytes.first() else {
        return Err(PbnCodecError::Truncated { at: 0 });
    };
    if b0 == FRONT_MARK || b0 > 0b1111_0000 {
        return Err(PbnCodecError::Reserved { at: 0 });
    }
    let len = ordinal_len(b0);
    if bytes.len() < len {
        return Err(PbnCodecError::Truncated { at: 0 });
    }
    let (r, offset) = match len {
        1 => (u64::from(b0), 0),
        2 => ((u64::from(b0 & 0b0011_1111) << 8) | u64::from(bytes[1]), T1),
        3 => (
            (u64::from(b0 & 0b0001_1111) << 16) | (u64::from(bytes[1]) << 8) | u64::from(bytes[2]),
            T1 + T2,
        ),
        4 => (
            (u64::from(b0 & 0b0000_1111) << 24)
                | (u64::from(bytes[1]) << 16)
                | (u64::from(bytes[2]) << 8)
                | u64::from(bytes[3]),
            T1 + T2 + T3,
        ),
        _ => (
            u64::from(u32::from_be_bytes([bytes[1], bytes[2], bytes[3], bytes[4]])),
            T1 + T2 + T3 + T4,
        ),
    };
    let v = u32::try_from(r + offset).map_err(|_| PbnCodecError::Overflow { at: 0 })?;
    Ok((v, len))
}

/// Byte length of an ordinal encoding, from its first byte's leading bits.
#[inline]
pub(crate) fn ordinal_len(b0: u8) -> usize {
    if b0 & 0b1000_0000 == 0 {
        1
    } else if b0 & 0b0100_0000 == 0 {
        2
    } else if b0 & 0b0010_0000 == 0 {
        3
    } else if b0 & 0b0001_0000 == 0 {
        4
    } else {
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbn;

    #[test]
    fn round_trip_representative_values() {
        for c in [
            1u32,
            2,
            127,
            128,
            129,
            1000,
            (T1 + T2) as u32 - 1,
            (T1 + T2) as u32,
            (T1 + T2 + T3) as u32 - 1,
            (T1 + T2 + T3) as u32,
            (T1 + T2 + T3 + T4) as u32 - 1,
            (T1 + T2 + T3 + T4) as u32,
            u32::MAX,
        ] {
            let p = Pbn::new(vec![c]);
            let e = EncodedPbn::encode(&p);
            assert_eq!(e.decode(), p, "component {c}");
        }
    }

    #[test]
    fn multi_component_round_trip() {
        let p = pbn![1, 128, 2, 300_000, 5];
        assert_eq!(EncodedPbn::encode(&p).decode(), p);
    }

    #[test]
    fn minted_components_round_trip() {
        let p = Pbn::root()
            .child_comp(Comp::minted(2, vec![0x80]))
            .child(3)
            .child_comp(Comp::minted(0, vec![0x01, 0x02]));
        let e = EncodedPbn::encode(&p);
        assert_eq!(e.decode(), p);
        assert_eq!(EncodedPbn::from_bytes(e.as_bytes().to_vec()).unwrap(), e);
    }

    #[test]
    fn ordinal_bytes_never_collide_with_the_markers() {
        // The ordinal coder never emits 0x00 or 0xF1..0xFF as a first byte.
        for c in [1u32, 127, 128, 1000, 1 << 20, 1 << 29, u32::MAX] {
            let mut out = Vec::new();
            encode_ordinal(c, &mut out);
            assert_ne!(out[0], FRONT_MARK, "ordinal {c}");
            assert!(out[0] <= 0xF0, "ordinal {c} first byte {:#x}", out[0]);
        }
    }

    #[test]
    fn small_components_take_one_byte() {
        let p = pbn![1, 2, 3, 4];
        assert_eq!(EncodedPbn::encode(&p).size(), 4);
        // vs. 16 bytes for the raw u32 representation.
    }

    #[test]
    fn byte_order_equals_document_order() {
        let nums = [
            pbn![1],
            pbn![1, 1],
            pbn![1, 1, 200],
            pbn![1, 2],
            pbn![1, 127],
            pbn![1, 128],
            pbn![1, 129],
            pbn![1, 70_000],
            pbn![2],
        ];
        for x in &nums {
            for y in &nums {
                let (ex, ey) = (EncodedPbn::encode(x), EncodedPbn::encode(y));
                assert_eq!(ex.cmp(&ey), x.cmp(y), "byte order disagrees for {x} vs {y}");
            }
        }
    }

    #[test]
    fn byte_order_equals_document_order_with_minted_keys() {
        let nums = [
            pbn![1],
            Pbn::root().child_comp(Comp::minted(0, vec![0x7F])),
            Pbn::root().child_comp(Comp::minted(0, vec![0x80])),
            Pbn::root().child_comp(Comp::minted(0, vec![0x80])).child(1),
            pbn![1, 1],
            pbn![1, 1, 200],
            Pbn::root().child_comp(Comp::minted(1, vec![0x80])),
            pbn![1, 2],
            pbn![1, 2, 7],
            Pbn::root().child_comp(Comp::minted(2, vec![0x40])),
            Pbn::root().child_comp(Comp::minted(2, vec![0x40, 0x02])),
            Pbn::root()
                .child_comp(Comp::minted(2, vec![0x40, 0x02]))
                .child(5),
            Pbn::root().child_comp(Comp::minted(2, vec![0x41])),
            pbn![1, 3],
            pbn![1, 128],
            Pbn::root().child_comp(Comp::minted(128, vec![0x80])),
            pbn![1, 129],
            pbn![2],
        ];
        for x in &nums {
            for y in &nums {
                let (ex, ey) = (EncodedPbn::encode(x), EncodedPbn::encode(y));
                assert_eq!(ex.cmp(&ey), x.cmp(y), "byte order disagrees for {x} vs {y}");
            }
        }
    }

    #[test]
    fn prefix_property_holds() {
        let p = pbn![1, 130];
        let c = pbn![1, 130, 99];
        let other = pbn![1, 131];
        let (ep, ec, eo) = (
            EncodedPbn::encode(&p),
            EncodedPbn::encode(&c),
            EncodedPbn::encode(&other),
        );
        assert!(ep.is_prefix_of(&ec));
        assert!(!ep.is_prefix_of(&eo));
        assert!(ep.is_prefix_of(&ep));
    }

    #[test]
    fn gap_keys_are_not_descendants_of_their_left_sibling() {
        // enc({j, F}) byte-extends enc(j) — the GAP_MARK continuation —
        // but the prefix predicate must classify it as a *sibling*.
        let left = pbn![1, 2];
        let minted = Pbn::root().child_comp(Comp::minted(2, vec![0x80]));
        let (el, em) = (EncodedPbn::encode(&left), EncodedPbn::encode(&minted));
        assert!(em.as_bytes().starts_with(el.as_bytes()));
        assert!(!el.is_prefix_of(&em), "gap sibling misread as descendant");
        // The minted node is an ancestor of its own children, though.
        let child = minted.child(1);
        assert!(em.is_prefix_of(&EncodedPbn::encode(&child)));
    }

    #[test]
    fn empty_number_encodes_to_empty_bytes() {
        let e = EncodedPbn::encode(&Pbn::empty());
        assert_eq!(e.size(), 0);
        assert_eq!(e.decode(), Pbn::empty());
    }

    #[test]
    fn from_bytes_accepts_exactly_the_valid_encodings() {
        let p = pbn![1, 128, 2, 300_000, 5];
        let bytes = EncodedPbn::encode(&p).as_bytes().to_vec();
        let e = EncodedPbn::from_bytes(bytes).unwrap();
        assert_eq!(e.decode(), p);
        assert_eq!(
            EncodedPbn::from_bytes(Vec::new()).unwrap(),
            EncodedPbn::default()
        );
    }

    #[test]
    fn truncated_components_are_rejected_not_panicked() {
        // A two-byte component's first byte with nothing after it.
        let err = EncodedPbn::from_bytes(vec![0b1000_0001]).unwrap_err();
        assert_eq!(err, PbnCodecError::Truncated { at: 0 });
        assert_eq!(err.code(), "PBN_TRUNCATED");
        // Valid one-byte component followed by a truncated five-byte one.
        let err = EncodedPbn::from_bytes(vec![0x03, 0b1111_0000, 0, 0]).unwrap_err();
        assert_eq!(err, PbnCodecError::Truncated { at: 1 });
        // An unterminated fraction.
        let err = EncodedPbn::from_bytes(vec![0x03, GAP_MARK, 0x80]).unwrap_err();
        assert_eq!(err, PbnCodecError::Truncated { at: 0 });
    }

    #[test]
    fn reserved_patterns_are_rejected_not_misread() {
        // 0xF9 can never open a component.
        let err = EncodedPbn::from_bytes(vec![0xF9]).unwrap_err();
        assert_eq!(err, PbnCodecError::Reserved { at: 0 });
        assert_eq!(err.code(), "PBN_RESERVED");
        // A gap marker with an empty fraction.
        let err = EncodedPbn::from_bytes(vec![0x03, GAP_MARK, FRAC_END]).unwrap_err();
        assert_eq!(err, PbnCodecError::Reserved { at: 0 });
        // A front marker with an empty fraction.
        let err = EncodedPbn::from_bytes(vec![FRONT_MARK, FRAC_END]).unwrap_err();
        assert_eq!(err, PbnCodecError::Reserved { at: 0 });
    }

    #[test]
    fn standalone_ordinal_values_round_trip_in_order() {
        let values = [1u32, 2, 127, 128, 300_000, (T1 + T2 + T3) as u32, u32::MAX];
        let mut prev: Option<Vec<u8>> = None;
        for v in values {
            let mut out = Vec::new();
            encode_ordinal_value(v, &mut out).unwrap();
            let (back, used) = decode_ordinal_value(&out).unwrap();
            assert_eq!((back, used), (v, out.len()), "value {v}");
            if let Some(p) = &prev {
                assert!(p.as_slice() < out.as_slice(), "order broke at {v}");
            }
            prev = Some(out);
        }
    }

    #[test]
    fn standalone_ordinal_decoder_leaves_trailing_bytes_alone() {
        let mut out = Vec::new();
        encode_ordinal_value(7, &mut out).unwrap();
        // A GAP_MARK after the ordinal is payload here, not a fraction.
        out.extend_from_slice(&[GAP_MARK, 0x42]);
        assert_eq!(decode_ordinal_value(&out).unwrap(), (7, 1));
    }

    #[test]
    fn standalone_ordinal_rejects_markers_and_truncation() {
        assert_eq!(
            encode_ordinal_value(0, &mut Vec::new()).unwrap_err(),
            PbnCodecError::Reserved { at: 0 }
        );
        assert_eq!(
            decode_ordinal_value(&[]).unwrap_err(),
            PbnCodecError::Truncated { at: 0 }
        );
        assert_eq!(
            decode_ordinal_value(&[FRONT_MARK]).unwrap_err(),
            PbnCodecError::Reserved { at: 0 }
        );
        assert_eq!(
            decode_ordinal_value(&[0xF9]).unwrap_err(),
            PbnCodecError::Reserved { at: 0 }
        );
        assert_eq!(
            decode_ordinal_value(&[0b1000_0001]).unwrap_err(),
            PbnCodecError::Truncated { at: 0 }
        );
    }

    #[test]
    fn five_byte_overflow_is_rejected_not_wrapped() {
        // Largest representable component is u32::MAX; its payload is
        // u32::MAX - (T1+T2+T3+T4). Anything above must error.
        let max_r = (u64::from(u32::MAX) - (T1 + T2 + T3 + T4)) as u32;
        let mut ok = vec![0b1111_0000];
        ok.extend_from_slice(&max_r.to_be_bytes());
        assert_eq!(
            EncodedPbn::from_bytes(ok).unwrap().decode(),
            Pbn::new(vec![u32::MAX])
        );
        let mut bad = vec![0b1111_0000];
        bad.extend_from_slice(&(max_r + 1).to_be_bytes());
        let err = EncodedPbn::from_bytes(bad).unwrap_err();
        assert_eq!(err, PbnCodecError::Overflow { at: 0 });
        assert_eq!(err.code(), "PBN_OVERFLOW");
    }
}
