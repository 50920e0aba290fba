//! Fixture engine seeding `span-vocab`.
//!
//! Seeded finding: one off-vocabulary span name (`rogue-stage`, line
//! 12). The stable stage names around it must stay silent, and so must
//! the root span opened by `TraceBuilder::enabled`.

impl Engine {
    /// The current entry point (no constraints apply to it).
    pub fn run(&self, q: &str) -> Outcome {
        let mut trace = TraceBuilder::enabled("query");
        trace.begin("parse");
        trace.begin("rogue-stage");
        trace.begin("exec");
        self.pipeline(q, trace)
    }
}
