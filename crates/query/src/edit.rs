//! The edit model: document mutations, their WAL payload codec, and the
//! receipts/reports the engine returns for them.
//!
//! An [`Edit`] addresses nodes by *dotted child-index paths* (`"1.2.1"` =
//! root → second child → first child), not by PBN numbers: paths stay
//! short and human-writable even after minted fractional numbers appear,
//! and they make edit scripts replayable against any structurally equal
//! document. [`Edit::encode`]/[`Edit::decode`] give each edit a compact
//! binary payload carried inside one CRC-framed record of the
//! [`vh_storage::EditWal`]; the engine appends and syncs the frame before
//! acknowledging the edit, so the synced log prefix always reproduces the
//! acknowledged document state ([`crate::engine::Engine::recover`]).
//!
//! Every `match` over [`Edit`] in this crate is exhaustive by policy — no
//! `_ =>` arms — so adding a variant fails compilation at each encode,
//! replay and trace-emission site instead of silently corrupting logs.
//! Clippy pins this: `wildcard_enum_match_arm` (a catch-all over two or
//! more variants) and `match_wildcard_for_single_variants` (over exactly
//! one) are denied on the `impl Edit` blocks and on
//! `Engine::apply_inner`.

use vh_dataguide::EditError;
use vh_obs::{Json, QueryTrace};
use vh_storage::RecoveryReport;

// ------------------------------------------------------------- model ---

/// One mutation of a registered document.
///
/// Positions are 0-based; `pos == len` appends. For [`Edit::MoveSubtree`]
/// the position is counted *after* the subtree is detached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Parse `xml` as a single-rooted fragment and insert it as the
    /// `pos`-th child of the node at `parent`.
    InsertSubtree {
        /// URI of the registered document.
        uri: String,
        /// Dotted child-index path of the parent element.
        parent: String,
        /// 0-based insert position among the parent's children.
        pos: usize,
        /// The fragment to insert (one root element).
        xml: String,
    },
    /// Detach and drop the subtree rooted at `target`.
    DeleteSubtree {
        /// URI of the registered document.
        uri: String,
        /// Dotted child-index path of the subtree root (not `"1"`).
        target: String,
    },
    /// Re-home the subtree at `target` as the `pos`-th child of `parent`.
    MoveSubtree {
        /// URI of the registered document.
        uri: String,
        /// Dotted child-index path of the subtree root (not `"1"`).
        target: String,
        /// Dotted child-index path of the destination element.
        parent: String,
        /// 0-based position among the destination's children, counted
        /// after the subtree is detached.
        pos: usize,
    },
    /// Replace the textual content of the node at `target`.
    SetValue {
        /// URI of the registered document.
        uri: String,
        /// Dotted child-index path of a text node or simple element.
        target: String,
        /// The new textual content.
        value: String,
    },
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
impl Edit {
    /// The document this edit targets.
    pub fn uri(&self) -> &str {
        match self {
            Edit::InsertSubtree { uri, .. } => uri,
            Edit::DeleteSubtree { uri, .. } => uri,
            Edit::MoveSubtree { uri, .. } => uri,
            Edit::SetValue { uri, .. } => uri,
        }
    }

    /// Stable lowercase label of the edit kind — the `kind` metadata of
    /// the `apply` span and the `kind` field of [`EditReceipt`].
    pub fn kind(&self) -> &'static str {
        match self {
            Edit::InsertSubtree { .. } => "insert-subtree",
            Edit::DeleteSubtree { .. } => "delete-subtree",
            Edit::MoveSubtree { .. } => "move-subtree",
            Edit::SetValue { .. } => "set-value",
        }
    }
}

// ------------------------------------------------------------- codec ---

/// Payload tag of [`Edit::InsertSubtree`].
const TAG_INSERT: u8 = 1;
/// Payload tag of [`Edit::DeleteSubtree`].
const TAG_DELETE: u8 = 2;
/// Payload tag of [`Edit::MoveSubtree`].
const TAG_MOVE: u8 = 3;
/// Payload tag of [`Edit::SetValue`].
const TAG_SET: u8 = 4;

/// A WAL payload that does not decode back into an [`Edit`].
///
/// The frame around the payload carried a valid CRC, so this is not bit
/// rot but a format mismatch (a frame written by a different version, or
/// a bug). Recovery quarantines the record rather than guessing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditCodecError {
    /// What was malformed.
    pub detail: String,
}

impl std::fmt::Display for EditCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[EDIT_PAYLOAD] undecodable edit payload: {}",
            self.detail
        )
    }
}

impl std::error::Error for EditCodecError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_pos(out: &mut Vec<u8>, pos: usize) {
    out.extend_from_slice(&(pos as u64).to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], EditCodecError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| EditCodecError {
            detail: format!("truncated at byte {} (wanted {n} more)", self.at),
        })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn get_str(&mut self) -> Result<String, EditCodecError> {
        let len = self.take(4)?;
        let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| EditCodecError {
            detail: "string field is not UTF-8".into(),
        })
    }

    fn get_pos(&mut self) -> Result<usize, EditCodecError> {
        let raw = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(raw);
        usize::try_from(u64::from_le_bytes(b)).map_err(|_| EditCodecError {
            detail: "position overflows this platform".into(),
        })
    }

    fn finish(self) -> Result<(), EditCodecError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(EditCodecError {
                detail: format!("{} trailing bytes", self.bytes.len() - self.at),
            })
        }
    }
}

#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
impl Edit {
    /// Serializes the edit into its WAL record payload: a tag byte, then
    /// length-prefixed UTF-8 strings and `u64` little-endian positions in
    /// field order.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Edit::InsertSubtree {
                uri,
                parent,
                pos,
                xml,
            } => {
                out.push(TAG_INSERT);
                put_str(&mut out, uri);
                put_str(&mut out, parent);
                put_pos(&mut out, *pos);
                put_str(&mut out, xml);
            }
            Edit::DeleteSubtree { uri, target } => {
                out.push(TAG_DELETE);
                put_str(&mut out, uri);
                put_str(&mut out, target);
            }
            Edit::MoveSubtree {
                uri,
                target,
                parent,
                pos,
            } => {
                out.push(TAG_MOVE);
                put_str(&mut out, uri);
                put_str(&mut out, target);
                put_str(&mut out, parent);
                put_pos(&mut out, *pos);
            }
            Edit::SetValue { uri, target, value } => {
                out.push(TAG_SET);
                put_str(&mut out, uri);
                put_str(&mut out, target);
                put_str(&mut out, value);
            }
        }
        out
    }

    /// Decodes a WAL record payload produced by [`Edit::encode`].
    /// Fully untrusting: truncation, bad UTF-8, unknown tags and trailing
    /// bytes are errors, never panics.
    pub fn decode(payload: &[u8]) -> Result<Edit, EditCodecError> {
        let (&tag, rest) = payload.split_first().ok_or_else(|| EditCodecError {
            detail: "empty payload".into(),
        })?;
        let mut r = Reader { bytes: rest, at: 0 };
        let edit = match tag {
            TAG_INSERT => Edit::InsertSubtree {
                uri: r.get_str()?,
                parent: r.get_str()?,
                pos: r.get_pos()?,
                xml: r.get_str()?,
            },
            TAG_DELETE => Edit::DeleteSubtree {
                uri: r.get_str()?,
                target: r.get_str()?,
            },
            TAG_MOVE => Edit::MoveSubtree {
                uri: r.get_str()?,
                target: r.get_str()?,
                parent: r.get_str()?,
                pos: r.get_pos()?,
            },
            TAG_SET => Edit::SetValue {
                uri: r.get_str()?,
                target: r.get_str()?,
                value: r.get_str()?,
            },
            other => {
                return Err(EditCodecError {
                    detail: format!("unknown edit tag {other:#04x}"),
                })
            }
        };
        r.finish()?;
        Ok(edit)
    }
}

// ---------------------------------------------------------- receipts ---

/// What [`crate::engine::Engine::apply`] returns for one acknowledged
/// edit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditReceipt {
    /// The edit's sequence number in the write-ahead log. The edit is
    /// durable: its frame was appended and synced before this receipt was
    /// produced.
    pub seq: u64,
    /// URI of the edited document.
    pub uri: String,
    /// The [`Edit::kind`] label.
    pub kind: &'static str,
    /// Nodes inserted, removed, moved or rewritten by this edit.
    pub nodes_touched: u64,
    /// Delta-segment entries merged into the byte arena on account of
    /// this edit (0 when the edit batch is still accumulating).
    pub compacted: usize,
}

/// One WAL record that could not be re-applied during recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayFailure {
    /// Sequence number of the failing record.
    pub seq: u64,
    /// Why it failed (codec mismatch or edit-level rejection).
    pub reason: String,
}

/// What [`crate::engine::Engine::recover`] returns: the frame-level
/// outcome of reading the log plus the edit-level outcome of re-applying
/// it. Replay stops at the first failing record — everything after it
/// stays un-applied rather than diverging from the logged order — so
/// `failed` holds at most one entry.
#[derive(Clone, Debug, Default)]
pub struct EditRecovery {
    /// Torn-tail/corruption outcome of reading the log bytes.
    pub wal: RecoveryReport,
    /// Records re-applied by this recovery.
    pub replayed: u64,
    /// Records skipped because their sequence number was already applied
    /// (idempotent replay).
    pub skipped: u64,
    /// The first record that failed to decode or re-apply, if any.
    pub failed: Vec<ReplayFailure>,
    /// Delta-segment entries merged by the end-of-recovery compaction.
    pub compacted: usize,
    /// The `recover` span tree when tracing was requested.
    pub trace: Option<QueryTrace>,
}

impl EditRecovery {
    /// Whether the log was read intact *and* every record re-applied.
    pub fn is_clean(&self) -> bool {
        self.wal.is_clean() && self.failed.is_empty()
    }

    /// A JSON rendering for CI artifacts and `vpbn recover --dump`.
    pub fn to_json(&self) -> String {
        let uint = |n: usize| Json::UInt(n as u64);
        let wal = &self.wal;
        let failed = self.failed.iter().map(|f| {
            Json::Obj(vec![
                ("seq".into(), Json::UInt(f.seq)),
                ("reason".into(), Json::Str(f.reason.clone())),
            ])
        });
        Json::Obj(vec![
            (
                "wal".into(),
                Json::Obj(vec![
                    ("records".into(), uint(wal.records)),
                    ("last_seq".into(), Json::UInt(wal.last_seq)),
                    ("quarantined_bytes".into(), uint(wal.quarantined_bytes)),
                    (
                        "first_bad_offset".into(),
                        wal.first_bad_offset.map_or(Json::Null, uint),
                    ),
                    (
                        "reason".into(),
                        wal.reason.clone().map_or(Json::Null, Json::Str),
                    ),
                ]),
            ),
            ("replayed".into(), Json::UInt(self.replayed)),
            ("skipped".into(), Json::UInt(self.skipped)),
            ("compacted".into(), uint(self.compacted)),
            ("failed".into(), Json::Arr(failed.collect())),
        ])
        .render_compact()
    }
}

/// Lifts a document-level edit rejection into the query error taxonomy —
/// kept here so `vh_dataguide` stays independent of this crate.
impl From<EditError> for crate::error::QueryError {
    fn from(e: EditError) -> Self {
        crate::error::QueryError::Edit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Edit> {
        vec![
            Edit::InsertSubtree {
                uri: "book.xml".into(),
                parent: "1.2".into(),
                pos: 0,
                xml: "<note>hi</note>".into(),
            },
            Edit::DeleteSubtree {
                uri: "book.xml".into(),
                target: "1.1".into(),
            },
            Edit::MoveSubtree {
                uri: "book.xml".into(),
                target: "1.1".into(),
                parent: "1.2".into(),
                pos: 1,
            },
            Edit::SetValue {
                uri: "book.xml".into(),
                target: "1.2.1".into(),
                value: "Tuples & Trees".into(),
            },
        ]
    }

    #[test]
    fn payloads_round_trip() {
        for e in samples() {
            let bytes = e.encode();
            assert_eq!(Edit::decode(&bytes).unwrap(), e, "{}", e.kind());
        }
    }

    #[test]
    fn kind_and_uri_are_stable() {
        let kinds: Vec<&str> = samples().iter().map(Edit::kind).collect();
        assert_eq!(
            kinds,
            [
                "insert-subtree",
                "delete-subtree",
                "move-subtree",
                "set-value"
            ]
        );
        assert!(samples().iter().all(|e| e.uri() == "book.xml"));
    }

    #[test]
    fn truncated_payloads_error_out() {
        for e in samples() {
            let bytes = e.encode();
            for cut in 0..bytes.len() {
                // Every proper prefix must fail cleanly, never panic.
                assert!(
                    Edit::decode(&bytes[..cut]).is_err(),
                    "{} cut at {cut} decoded",
                    e.kind()
                );
            }
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(Edit::decode(&[]).is_err());
        assert!(Edit::decode(&[0xEE]).is_err());
        let mut bytes = samples()[1].encode();
        bytes.push(0x00);
        let err = Edit::decode(&bytes).unwrap_err();
        assert!(err.detail.contains("trailing"), "{err}");
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        let mut bytes = vec![super::TAG_DELETE];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Edit::decode(&bytes).is_err());
    }

    #[test]
    fn recovery_report_renders_json() {
        let rec = EditRecovery {
            wal: RecoveryReport {
                records: 4,
                last_seq: 4,
                quarantined_bytes: 9,
                first_bad_offset: Some(120),
                reason: Some("crc mismatch".into()),
            },
            replayed: 3,
            skipped: 1,
            failed: vec![ReplayFailure {
                seq: 5,
                reason: "bad \"path\"\n\u{1}".into(),
            }],
            ..EditRecovery::default()
        };
        let json = Json::parse(&rec.to_json()).unwrap();
        let wal = json.get("wal").unwrap();
        assert_eq!(
            wal.get("reason").and_then(Json::as_str),
            Some("crc mismatch")
        );
        assert_eq!(
            wal.get("first_bad_offset").and_then(Json::as_u64),
            Some(120)
        );
        assert_eq!(wal.get("quarantined_bytes").and_then(Json::as_u64), Some(9));
        assert_eq!(json.get("replayed").and_then(Json::as_u64), Some(3));
        let failed = json.get("failed").and_then(Json::as_arr).unwrap();
        assert_eq!(failed[0].get("seq").and_then(Json::as_u64), Some(5));
        assert_eq!(
            failed[0].get("reason").and_then(Json::as_str),
            Some("bad \"path\"\n\u{1}")
        );
        assert!(!rec.is_clean());
    }
}
