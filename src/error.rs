//! Suite-wide error facade.
//!
//! Every crate in the workspace reports failures through its own layered
//! error type (`ParseError`, `VdgError`, `QueryError`, `StorageError`,
//! `ValueError`).  [`VhError`] converges them into one enum so that
//! embedders — and the `vpbn` CLI — can match on a single type, print a
//! full cause chain, and map each failure class to a stable error code
//! and process exit code.
//!
//! # Exit codes
//!
//! | class                         | exit code |
//! |-------------------------------|-----------|
//! | command-line usage            | 2         |
//! | file I/O                      | 3         |
//! | XML parsing                   | 4         |
//! | vDataGuide specification      | 5         |
//! | query (syntax / evaluation)   | 6         |
//! | storage (faults, corruption)  | 7         |
//! | resource limits exceeded      | 8         |
//! | edit rejected                 | 9         |
//! | serve (wire / admission)      | 10        |

use std::error::Error;
use std::fmt;

use vh_core::value::ValueError;
use vh_core::VdgError;
use vh_query::QueryError;
use vh_serve::ClientError;
use vh_storage::StorageError;
use vh_xml::ParseError;

/// One error type for the whole suite.
///
/// Constructed via `From` impls from each layer's error, or via
/// [`VhError::usage`] / [`VhError::io`] for CLI-level failures.
#[derive(Debug)]
pub enum VhError {
    /// The command line was malformed (missing operand, unknown command).
    Usage(String),
    /// A file could not be read.
    Io {
        /// Path we tried to read.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The XML input was not well-formed.
    Xml(ParseError),
    /// A vDataGuide specification was invalid or too deep.
    Vdg(VdgError),
    /// A query failed to parse or evaluate (including resource limits).
    Query(QueryError),
    /// The storage layer reported a fault or corruption.
    Storage(StorageError),
    /// Value stitching failed; usually wraps a [`StorageError`].
    Value(ValueError),
    /// A VHRPC client call failed: transport, protocol, or a server
    /// rejection (including admission-control shedding).
    Serve(ClientError),
}

impl VhError {
    /// A command-line usage error (exit code 2).
    pub fn usage(msg: impl Into<String>) -> Self {
        VhError::Usage(msg.into())
    }

    /// A file-read error for `path` (exit code 3).
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        VhError::Io {
            path: path.into(),
            source,
        }
    }

    /// Stable machine-readable code for the failure class.
    ///
    /// For wrapped layer errors this defers to the layer's own `code()`
    /// where one exists, so the facade never loses precision.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn code(&self) -> &'static str {
        match self {
            VhError::Usage(_) => "CLI_USAGE",
            VhError::Io { .. } => "CLI_IO",
            VhError::Xml(_) => "XML_PARSE",
            VhError::Vdg(_) => "VDG_SPEC",
            VhError::Query(e) => e.code(),
            VhError::Storage(e) => e.code(),
            VhError::Value(e) => match e.inner().downcast_ref::<StorageError>() {
                Some(s) => s.code(),
                None => "VALUE",
            },
            VhError::Serve(_) => "SERVE",
        }
    }

    /// Process exit code for the failure class (see module docs).
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn exit_code(&self) -> u8 {
        match self {
            VhError::Usage(_) => 2,
            VhError::Io { .. } => 3,
            VhError::Xml(_) => 4,
            VhError::Vdg(_) => 5,
            // Resource exhaustion gets its own code so scripts can
            // distinguish "query is wrong" from "query is too big".
            VhError::Query(QueryError::ResourceExhausted { .. }) => 8,
            // Rejected edits likewise: "the document refused this
            // mutation" is actionable differently from a bad query.
            VhError::Query(QueryError::Edit(_)) => 9,
            VhError::Query(_) => 6,
            VhError::Storage(_) => 7,
            // A ValueError is a storage-class failure whether or not the
            // boxed inner error is literally a StorageError.
            VhError::Value(_) => 7,
            VhError::Serve(_) => 10,
        }
    }

    /// Render the full cause chain, one `caused by:` line per link.
    ///
    /// The facade's own `Display` delegates to the wrapped layer error, so
    /// a chain link whose message merely repeats the previous one is
    /// elided rather than printed twice.
    pub fn render_chain(&self) -> String {
        let mut out = format!("error[{}]: {self}", self.code());
        let mut prev = self.to_string();
        let mut cause = self.source();
        while let Some(c) = cause {
            let msg = c.to_string();
            if msg != prev {
                out.push_str(&format!("\n  caused by: {msg}"));
            }
            prev = msg;
            cause = c.source();
        }
        out
    }
}

impl fmt::Display for VhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VhError::Usage(m) => write!(f, "{m}"),
            VhError::Io { path, source } => write!(f, "cannot read '{path}': {source}"),
            VhError::Xml(e) => write!(f, "{e}"),
            VhError::Vdg(e) => write!(f, "{e}"),
            VhError::Query(e) => write!(f, "{e}"),
            VhError::Storage(e) => write!(f, "{e}"),
            VhError::Value(e) => write!(f, "{e}"),
            VhError::Serve(e) => write!(f, "{e}"),
        }
    }
}

impl Error for VhError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VhError::Usage(_) => None,
            VhError::Io { source, .. } => Some(source),
            VhError::Xml(e) => Some(e),
            VhError::Vdg(e) => Some(e),
            VhError::Query(e) => Some(e),
            VhError::Storage(e) => Some(e),
            VhError::Value(e) => Some(e),
            VhError::Serve(e) => Some(e),
        }
    }
}

impl From<ParseError> for VhError {
    fn from(e: ParseError) -> Self {
        VhError::Xml(e)
    }
}

impl From<VdgError> for VhError {
    fn from(e: VdgError) -> Self {
        VhError::Vdg(e)
    }
}

impl From<QueryError> for VhError {
    fn from(e: QueryError) -> Self {
        // Queries that die on a vDataGuide problem are vDataGuide
        // failures to the user, whichever layer noticed first.
        match e {
            QueryError::Vdg(v) => VhError::Vdg(v),
            other => VhError::Query(other),
        }
    }
}

impl From<StorageError> for VhError {
    fn from(e: StorageError) -> Self {
        VhError::Storage(e)
    }
}

impl From<ValueError> for VhError {
    fn from(e: ValueError) -> Self {
        VhError::Value(e)
    }
}

impl From<ClientError> for VhError {
    fn from(e: ClientError) -> Self {
        VhError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vh_query::{Limits, ResourceKind};

    #[test]
    fn exit_codes_partition_the_failure_classes() {
        let usage = VhError::usage("no action given");
        let io = VhError::io(
            "missing.xml",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let xml: VhError = vh_xml::parse("bad.xml", "<a>").unwrap_err().into();
        let vdg: VhError = VdgError::UnknownLabel("nope".into()).into();
        let query: VhError = QueryError::Parse("bad".into()).into();
        let resource: VhError = QueryError::ResourceExhausted {
            resource: ResourceKind::Steps,
            limit: Limits::default().max_steps,
        }
        .into();
        let storage: VhError = StorageError::Corrupt { page: 3 }.into();
        let edit: VhError = QueryError::Edit(vh_dataguide::EditError::RootTarget).into();
        let serve: VhError = ClientError::Rejected {
            status: vh_serve::WireStatus::Shed,
            message: "quota".into(),
        }
        .into();
        let codes = [
            usage.exit_code(),
            io.exit_code(),
            xml.exit_code(),
            vdg.exit_code(),
            query.exit_code(),
            storage.exit_code(),
            resource.exit_code(),
            edit.exit_code(),
            serve.exit_code(),
        ];
        assert_eq!(codes, [2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(edit.code(), "QUERY_EDIT");
        assert_eq!(serve.code(), "SERVE");
    }

    #[test]
    fn rejected_column_loads_are_storage_class_failures() {
        // A malformed persisted PBN column (bad CRC, truncated keys, …)
        // must land in the storage exit class with its own stable code.
        let e: VhError = StorageError::BadColumn {
            column: "pbn",
            reason: "key at slot 3: [PBN_TRUNCATED] truncated".into(),
        }
        .into();
        assert_eq!(e.exit_code(), 7);
        assert_eq!(e.code(), "STORAGE_BAD_COLUMN");
        assert!(e.render_chain().contains("PBN_TRUNCATED"));
    }

    #[test]
    fn query_vdg_errors_collapse_to_the_vdg_class() {
        let e: VhError = QueryError::Vdg(VdgError::UnknownLabel("x".into())).into();
        assert_eq!(e.exit_code(), 5);
        assert_eq!(e.code(), "VDG_SPEC");
    }

    #[test]
    fn value_errors_expose_the_inner_storage_code() {
        let v = ValueError::new(StorageError::Transient {
            page: 1,
            attempts: 4,
        });
        let e: VhError = v.into();
        assert_eq!(e.code(), "STORAGE_TRANSIENT");
        assert_eq!(e.exit_code(), 7);
    }

    #[test]
    fn render_chain_walks_every_source() {
        let v = ValueError::new(StorageError::Corrupt { page: 9 });
        let e: VhError = v.into();
        let chain = e.render_chain();
        assert!(chain.starts_with("error[STORAGE_CORRUPT]:"), "{chain}");
        assert!(chain.contains("caused by:"), "{chain}");
        assert!(chain.contains("page 9") || chain.contains('9'), "{chain}");
    }
}
