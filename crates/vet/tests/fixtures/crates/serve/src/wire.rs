//! Trimmed copy of the VHRPC wire tables, with seeded drift.

/// Request verbs.
pub enum Verb {
    /// Point query.
    Point,
    /// Twig query.
    Twig,
    /// Mutation.
    Edit,
}

impl Verb {
    /// Wire opcode — total, stays silent.
    pub fn code(self) -> u8 {
        match self {
            Verb::Point => 1,
            Verb::Twig => 2,
            Verb::Edit => 3,
        }
    }

    /// Wire name — a missing `Edit` arm is rustc's to catch; silent.
    pub fn wire_name(self) -> &'static str {
        match self {
            Verb::Point => "point",
            Verb::Twig => "twig",
        }
    }
}

/// Response statuses.
pub enum WireStatus {
    /// Success.
    Ok,
    /// Shed under quota.
    Shed,
}

impl WireStatus {
    /// Wire code — total, stays silent.
    pub fn code(self) -> u8 {
        match self {
            WireStatus::Ok => 0,
            WireStatus::Shed => 8,
        }
    }

    /// Wire name — `shed` has no README table row (seeded).
    pub fn wire_name(self) -> &'static str {
        match self {
            WireStatus::Ok => "ok",
            WireStatus::Shed => "shed",
        }
    }
}

/// A decoded address — not re-exported from the crate root (seeded).
pub struct Address {
    /// Tenant ordinal.
    pub tenant: u32,
}
