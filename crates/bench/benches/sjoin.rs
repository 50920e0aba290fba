//! Criterion benchmark behind **F6**: stack-tree structural joins over
//! physical (PBN) and virtual (vPBN) sorted streams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vh_core::VirtualDocument;
use vh_dataguide::TypedDocument;
use vh_query::sjoin::{physical_structural_join, virtual_structural_join};
use vh_workload::{generate_books, BooksConfig};

fn bench_sjoin(c: &mut Criterion) {
    let mut g = c.benchmark_group("sjoin");
    for &n in &[500usize, 5_000] {
        let td = TypedDocument::analyze(generate_books("b", &BooksConfig::sized(n)));
        let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
        let books = td.nodes_of_type(td.guide().lookup_path(&["data", "book"]).unwrap());
        let names = td.nodes_of_type(
            td.guide()
                .lookup_path(&["data", "book", "author", "name"])
                .unwrap(),
        );
        let title_vt = vd.vdg().guide().lookup_path(&["title"]).unwrap();
        let name_vt = vd
            .vdg()
            .guide()
            .lookup_path(&["title", "author", "name"])
            .unwrap();
        let vtitles = vd.nodes_of_vtype(title_vt).to_vec();
        let vnames = vd.nodes_of_vtype(name_vt).to_vec();

        g.bench_with_input(BenchmarkId::new("physical", n), &n, |b, _| {
            b.iter(|| physical_structural_join(&td, books, names).len())
        });
        g.bench_with_input(BenchmarkId::new("virtual", n), &n, |b, _| {
            b.iter(|| virtual_structural_join(&vd, &vtitles, &vnames).len())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sjoin);
criterion_main!(benches);
