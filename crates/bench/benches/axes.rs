//! Criterion micro-benchmark behind **F2**: single axis checks, PBN vs
//! vPBN, over realistic node pairs from the books corpus.

use criterion::{criterion_group, criterion_main, Criterion};
use vh_core::{axes as vax, VirtualDocument};
use vh_dataguide::TypedDocument;
use vh_pbn::axes as pax;
use vh_workload::{generate_books, BooksConfig};

fn bench_axes(c: &mut Criterion) {
    let td = TypedDocument::analyze(generate_books("b", &BooksConfig::sized(200)));
    let vd = VirtualDocument::open(&td, "title { author { name } }").unwrap();
    let title_vt = vd.vdg().guide().lookup_path(&["title"]).unwrap();
    let name_vt = vd
        .vdg()
        .guide()
        .lookup_path(&["title", "author", "name"])
        .unwrap();
    let titles = vd.nodes_of_vtype(title_vt);
    let names = vd.nodes_of_vtype(name_vt);
    // A containing pair and a non-containing pair, physical and virtual.
    let t0 = titles[0];
    let n0 = names[0];
    let n_far = *names.last().unwrap();
    let (pt0, pn0, pnf) = (
        &td.pbn().pbn_of(t0),
        &td.pbn().pbn_of(n0),
        &td.pbn().pbn_of(n_far),
    );
    let (vt0, vn0, vnf) = (
        vd.vpbn_of(t0).unwrap(),
        vd.vpbn_of(n0).unwrap(),
        vd.vpbn_of(n_far).unwrap(),
    );
    let vdg = vd.vdg();

    let mut g = c.benchmark_group("axes");
    g.bench_function("pbn/ancestor_hit", |b| {
        b.iter(|| pax::is_ancestor(std::hint::black_box(pt0), std::hint::black_box(pn0)))
    });
    g.bench_function("pbn/ancestor_miss", |b| {
        b.iter(|| pax::is_ancestor(std::hint::black_box(pt0), std::hint::black_box(pnf)))
    });
    g.bench_function("vpbn/ancestor_hit", |b| {
        b.iter(|| vax::v_ancestor(vdg, std::hint::black_box(&vt0), std::hint::black_box(&vn0)))
    });
    g.bench_function("vpbn/ancestor_miss", |b| {
        b.iter(|| vax::v_ancestor(vdg, std::hint::black_box(&vt0), std::hint::black_box(&vnf)))
    });
    g.bench_function("pbn/preceding", |b| {
        b.iter(|| pax::is_preceding(std::hint::black_box(pn0), std::hint::black_box(pnf)))
    });
    g.bench_function("vpbn/preceding", |b| {
        b.iter(|| vax::v_preceding(vdg, std::hint::black_box(&vn0), std::hint::black_box(&vnf)))
    });
    g.bench_function("vpbn/sibling", |b| {
        b.iter(|| {
            vax::v_following_sibling(vdg, std::hint::black_box(&vnf), std::hint::black_box(&vn0))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_axes);
criterion_main!(benches);
