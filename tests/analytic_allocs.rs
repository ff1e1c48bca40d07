//! The allocation budget of an analytic statement's per-row work.
//!
//! A grouped aggregate consumes its input rows by reference, straight from
//! the scan, and looks each row's key up by slice from one reused buffer:
//! what it allocates does not grow with the rows it reads, only with the
//! groups it finds. A hash join numbers its build keys once and chains each
//! key's rows, so a probe allocates no key either. A counting allocator
//! pins both on the embedded engine and on a replicated 4-shard `DistDb`:
//! an exact count, unlike a timing, does not depend on the host.
//!
//! The 3 allocations per output row of `select e.id, d.vendor from events
//! e, devs d where e.dev = d.dev and ...`:
//! * the probe side's row, copied out of the scan into the join's input;
//! * the joined row (one vector sized for both sides);
//! * the projected row.
//!
//! While each probe row built a fresh key vector and `Row::concat` grew its
//! copy of the left row to fit the right one, the same join made 5.

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::sql::{Database, QueryApi};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of the thread that asks, so tests running in
/// parallel do not see each other's.
struct PerThread;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the count is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's layout contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: PerThread = PerThread;

const ROWS: i64 = 4_096;
const DEVS: i64 = 7;

/// The `perf` `analytic_scatter` tables at a small size: `events` with
/// `ts = id` and `dev = id % 7`, and one `devs` row per device.
fn load(db: &mut dyn QueryApi) {
    let mut run = |sql: &str| {
        db.execute_opts(sql, Default::default()).unwrap();
    };
    run("create table events (id int, dev int, ts int, val int)");
    run("create table devs (dev int, vendor int)");
    let ids: Vec<i64> = (0..ROWS).collect();
    for chunk in ids.chunks(512) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, {}, {id}, {})", id % DEVS, id * 5))
            .collect();
        run(&format!("insert into events values {}", vals.join(", ")));
    }
    let vals: Vec<String> = (0..DEVS).map(|d| format!("({d}, {})", d * 10)).collect();
    run(&format!("insert into devs values {}", vals.join(", ")));
    run("analyze");
}

fn engines() -> [(&'static str, Box<dyn QueryApi>); 2] {
    let mut local = Database::new();
    load(&mut local);
    let mut cfg = ClusterConfig::gtm_lite(4);
    cfg.replicas = 1;
    let mut dist = DistDb::new(Cluster::new(cfg)).unwrap();
    load(&mut dist);
    dist.cluster_mut().pump_replication(0).unwrap();
    [
        ("embedded", Box::new(local)),
        ("distributed", Box::new(dist)),
    ]
}

/// Allocations of a second run of `sql` (the first warms the engine), and
/// the number of rows it returned.
fn warmed(db: &mut dyn QueryApi, sql: &str) -> (u64, usize) {
    db.execute_opts(sql, Default::default()).unwrap();
    let before = ALLOCS.with(Cell::get);
    let r = db.execute_opts(sql, Default::default()).unwrap();
    (ALLOCS.with(Cell::get) - before, r.rows.len())
}

#[test]
fn a_warmed_group_by_allocates_per_group_not_per_row() {
    for (name, mut db) in engines() {
        let group_by =
            |n: i64| format!("select dev, count(*) from events where ts < {n} group by dev");
        let (small, groups) = warmed(db.as_mut(), &group_by(ROWS / 4));
        assert_eq!(groups, DEVS as usize, "{name}");
        let (large, groups) = warmed(db.as_mut(), &group_by(ROWS));
        assert_eq!(groups, DEVS as usize, "{name}");
        assert_eq!(small, large, "{name}: GROUP BY over N and 4N rows");
    }
}

#[test]
fn a_warmed_hash_join_allocates_three_times_per_output_row() {
    for (name, mut db) in engines() {
        let join = |n: i64| {
            format!(
                "select e.id, d.vendor from events e, devs d \
                 where e.dev = d.dev and e.ts < {n}"
            )
        };
        let (small, rows) = warmed(db.as_mut(), &join(ROWS / 2));
        assert_eq!(rows as i64, ROWS / 2, "{name}");
        let (large, rows) = warmed(db.as_mut(), &join(ROWS));
        assert_eq!(rows as i64, ROWS, "{name}");
        // Twice the rows also doubles each of the three row vectors (the
        // probe side's input, the join's output and the projection's) once
        // more: their capacities are powers of two.
        let per_row = 3;
        assert_eq!(
            large - small,
            per_row * (ROWS / 2) as u64 + 3,
            "{name}: hash join allocations over N and 2N output rows"
        );
    }
}
