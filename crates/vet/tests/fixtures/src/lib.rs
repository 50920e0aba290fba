//! Fixture library seeding the allow-comment edge cases on `hot-path`
//! allows (`vet-allow`, `stale-allow`).
//!
//! Seeded findings: a reason-less allow and an unknown-lint allow (each
//! a `vet-allow` finding whose indexing still fires `hot-path`) and a
//! stale `oracle-twin` allow. The documented allow in `documented` gates
//! its finding, and the `#[cfg(test)]` hot kernel must stay silent.

/// A documented bound: the allow gates the indexing, zero findings.
// vet: hot
pub fn documented(xs: &[u32; 4]) -> u32 {
    // vet: allow(hot-path) — fixture: a constant index into a 4-array
    xs[0]
}

/// A reason-less allow suppresses nothing: one `vet-allow` finding plus
/// the `hot-path` finding it failed to gate.
// vet: hot
pub fn reasonless(xs: &[u32]) -> u32 {
    // vet: allow(hot-path)
    xs[0]
}

/// An unknown lint id: one `vet-allow` finding plus the ungated
/// `hot-path` finding.
// vet: hot
pub fn unknown_lint(xs: &[u32]) -> u32 {
    // vet: allow(no-such-lint) — reason given but the lint is made up
    xs[0]
}

#[cfg(test)]
mod tests {
    /// Test code is exempt: a hot kernel here indexes freely.
    // vet: hot
    fn test_code_is_exempt(xs: &[u32]) -> u32 {
        xs[0]
    }
}

/// Seeded `stale-allow`: the kernel this once excused was renamed.
// vet: allow(oracle-twin) — fixture: stale, the kernel lost its _swar suffix
pub fn healed(x: u64) -> u64 {
    x.rotate_left(8)
}
