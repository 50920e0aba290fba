//! Fixture error facade, deliberately out of sync (seeds `error-exit`).
//!
//! Seeded violations:
//! * none in `code()`: its wildcard arm is clippy's to catch;
//! * exit code 9 has no row in the fixture README's exit table.

/// The fixture suite's error type.
pub enum VhError {
    /// CLI misuse.
    Usage(String),
    /// Filesystem failure.
    Io {
        /// The offending path.
        path: String,
    },
    /// Query failure.
    Query(String),
    /// Storage failure.
    Storage(String),
}

impl VhError {
    /// Stable machine-readable code.
    pub fn code(&self) -> &'static str {
        match self {
            VhError::Usage(_) => "CLI_USAGE",
            VhError::Io { .. } => "CLI_IO",
            VhError::Query(_) => "QUERY",
            _ => "OTHER",
        }
    }

    /// Process exit code for the CLI.
    pub fn exit_code(&self) -> u8 {
        match self {
            VhError::Usage(_) => 2,
            VhError::Io { .. } => 3,
            VhError::Query(_) => 2,
            VhError::Storage(_) => 9,
        }
    }
}
