//! Mixed point/twig/edit traffic for the query server.
//!
//! [`serve_ops`] deals a deterministic, seeded stream of wire-shaped
//! operations over the books corpus; `exp_serve` and the vh-serve tests
//! replay it through a [`vh_serve` client] (one stream per client
//! thread, distinguished by seed) so the traffic mix is reproducible
//! run-to-run. Ops are plain data — this crate knows nothing about the
//! wire — and every edit inserts vocabulary the corpus already uses, so
//! cached views take the maintenance path rather than a rebuild.
//!
//! [`vh_serve` client]: https://docs.rs/vh-serve

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vh_query::{Edit, Engine};

use crate::books::{generate_books, BooksConfig};

/// The URI the serve scenario registers its corpus under.
pub const SERVE_URI: &str = "books.xml";

/// The virtual view twig queries go through (Sam's transformation).
pub const SERVE_SPEC: &str = "title { author { name } }";

/// Point-query suite, sampled uniformly.
pub const SERVE_POINT_PATHS: &[&str] = &["//title", "//name", "//book", "//author/name"];

/// Twig-query suite over [`SERVE_SPEC`], sampled uniformly.
pub const SERVE_TWIG_PATHS: &[&str] = &["//title", "//author", "//name"];

/// One wire-shaped operation against the serve corpus.
#[derive(Clone, Debug)]
pub enum ServeOp {
    /// Count nodes matching `path` in the base document.
    Point {
        /// Query path.
        path: &'static str,
    },
    /// Count nodes matching `path` through the [`SERVE_SPEC`] view.
    Twig {
        /// Query path (evaluated against the virtual document).
        path: &'static str,
    },
    /// Apply an insertion edit to the base document.
    Edit {
        /// The edit, ready for [`Engine::apply`] or the wire.
        edit: Edit,
    },
}

/// Knobs for [`serve_ops`].
#[derive(Clone, Copy, Debug)]
pub struct ServeMixConfig {
    /// Operations to deal.
    pub ops: usize,
    /// Fraction of ops that are edits (`0.0..=1.0`).
    pub edit_fraction: f64,
    /// Fraction of the *remaining* ops that are twig queries.
    pub twig_fraction: f64,
    /// RNG seed; give each client thread its own.
    pub seed: u64,
}

impl Default for ServeMixConfig {
    fn default() -> Self {
        ServeMixConfig {
            ops: 256,
            edit_fraction: 0.1,
            twig_fraction: 0.4,
            seed: 42,
        }
    }
}

/// Deals the deterministic op stream for one client.
pub fn serve_ops(cfg: &ServeMixConfig) -> Vec<ServeOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.ops)
        .map(|i| {
            if rng.gen_bool(cfg.edit_fraction) {
                ServeOp::Edit {
                    edit: Edit::InsertSubtree {
                        uri: SERVE_URI.to_owned(),
                        parent: "1".to_owned(),
                        pos: 0,
                        xml: format!(
                            "<book><title>Wire {seed}.{i}</title>\
                             <author><name>Client {seed}</name></author></book>",
                            seed = cfg.seed
                        ),
                    },
                }
            } else if rng.gen_bool(cfg.twig_fraction) {
                ServeOp::Twig {
                    path: SERVE_TWIG_PATHS[rng.gen_range(0..SERVE_TWIG_PATHS.len())],
                }
            } else {
                ServeOp::Point {
                    path: SERVE_POINT_PATHS[rng.gen_range(0..SERVE_POINT_PATHS.len())],
                }
            }
        })
        .collect()
}

/// Builds the engine a serve tenant starts from: the books corpus under
/// [`SERVE_URI`].
pub fn serve_engine(books: usize, seed: u64) -> Engine {
    let mut engine = Engine::new();
    engine.register(generate_books(
        SERVE_URI,
        &BooksConfig {
            books: books.max(1),
            seed,
            ..BooksConfig::default()
        },
    ));
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let cfg = ServeMixConfig::default();
        let a = serve_ops(&cfg);
        let b = serve_ops(&cfg);
        assert_eq!(a.len(), cfg.ops);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let c = serve_ops(&ServeMixConfig { seed: 43, ..cfg });
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| format!("{x:?}") != format!("{y:?}")),
            "different seeds must deal different streams"
        );
    }

    #[test]
    fn the_mix_respects_the_fractions() {
        let ops = serve_ops(&ServeMixConfig {
            ops: 2000,
            edit_fraction: 0.25,
            twig_fraction: 0.5,
            seed: 7,
        });
        let edits = ops
            .iter()
            .filter(|o| matches!(o, ServeOp::Edit { .. }))
            .count();
        let twigs = ops
            .iter()
            .filter(|o| matches!(o, ServeOp::Twig { .. }))
            .count();
        assert!((350..650).contains(&edits), "edits: {edits}");
        assert!((600..900).contains(&twigs), "twigs: {twigs}");
    }

    #[test]
    fn every_op_replays_against_the_engine() {
        let mut engine = serve_engine(16, 5);
        for op in serve_ops(&ServeMixConfig {
            ops: 64,
            ..ServeMixConfig::default()
        }) {
            match op {
                ServeOp::Point { path } => {
                    engine
                        .run(&vh_query::QueryRequest::path(SERVE_URI, path))
                        .expect("point runs");
                }
                ServeOp::Twig { path } => {
                    engine
                        .run(&vh_query::QueryRequest::virtual_path(
                            SERVE_URI, SERVE_SPEC, path,
                        ))
                        .expect("twig runs");
                }
                ServeOp::Edit { edit } => {
                    engine.apply(edit).expect("edit applies");
                }
            }
        }
    }
}
