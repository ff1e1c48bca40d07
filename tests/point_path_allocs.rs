//! The allocation budget of a shard-key point read.
//!
//! A warmed point SELECT on a replicated 4-shard `DistDb` borrows its
//! snapshot, probe key, observation text and column names, and reuses the
//! session's canonical-form and parameter buffers, so what it allocates is
//! what it returns plus its transaction's snapshot. A counting allocator
//! pins the exact number for a prepared read and for the same read as raw
//! text: an exact count, unlike a timing, does not depend on the host.
//!
//! The four allocations of either read:
//! * the single-shard transaction's local snapshot (one B-tree node);
//! * the result's row vector and its one row;
//! * the result's one step observation.
//!
//! The embedded engine's prepared point read, an index probe on its cached
//! flat program, allocates the same four: its local snapshot, the probe's
//! hit list and its one row, and the one observation (10 while the program
//! copied its expressions and register file on every run).

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::Datum;
use huawei_dm::sql::{Database, QueryApi, QueryResult};
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

const ROWS: i64 = 2_000;

/// The `perf` `point_read` set-up at a small size: replicated, analyzed and
/// pumped.
fn loaded_db() -> DistDb {
    let mut cfg = ClusterConfig::gtm_lite(4);
    cfg.replicas = 1;
    let mut db = DistDb::new(Cluster::new(cfg)).unwrap();
    db.execute("create table events (id int, dev int, ts int, val int)")
        .unwrap();
    let ids: Vec<i64> = (0..ROWS).collect();
    for chunk in ids.chunks(500) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|id| format!("({id}, {}, {}, {})", id % 7, id * 3, id * 5))
            .collect();
        db.execute(&format!("insert into events values {}", vals.join(", ")))
            .unwrap();
    }
    db.execute("analyze").unwrap();
    db.cluster_mut().pump_replication(0).unwrap();
    db
}

/// Allocations made by `f` on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn assert_event(r: &QueryResult, id: i64) {
    assert_eq!(&r.columns[..], ["id", "dev", "ts", "val"]);
    assert_eq!(r.rows.len(), 1);
    let want = [id, id % 7, id * 3, id * 5].map(Datum::Int);
    assert_eq!(r.rows[0].values(), want);
}

#[test]
fn a_warmed_point_read_allocates_its_snapshot_and_its_result() {
    let mut db = loaded_db();
    let handle = db
        .prepare_handle("select * from events where id = ?")
        .unwrap();
    let raw = |id: i64| format!("select * from events where id = {id}");
    for id in 0..64 {
        assert_event(
            &db.execute_prepared(&handle, &[Datum::Int(id)]).unwrap(),
            id,
        );
        assert_event(&db.execute(&raw(id)).unwrap(), id);
    }

    let params = [Datum::Int(1_234)];
    let (n, r) = counted(|| db.execute_prepared(&handle, &params).unwrap());
    assert_event(&r, 1_234);
    assert_eq!(n, 4, "prepared point read allocations");

    let sql = raw(987);
    let (n, r) = counted(|| db.execute(&sql).unwrap());
    assert_event(&r, 987);
    assert_eq!(n, 4, "raw-text point read allocations");
}

/// The embedded engine's prepared point read, probed through an index on
/// `id`, runs its cached flat program.
#[test]
fn a_warmed_embedded_point_read_runs_its_flat_program() {
    let mut db = Database::new();
    db.execute("create table events (id int, dev int, ts int, val int)")
        .unwrap();
    let vals: Vec<String> = (0..ROWS)
        .map(|id| format!("({id}, {}, {}, {})", id % 7, id * 3, id * 5))
        .collect();
    db.execute(&format!("insert into events values {}", vals.join(", ")))
        .unwrap();
    db.execute("create index on events (id)").unwrap();
    db.execute("analyze").unwrap();
    let handle = db
        .prepare_handle("select * from events where id = ?")
        .unwrap();
    for id in 0..64 {
        assert_event(
            &db.execute_prepared(&handle, &[Datum::Int(id)]).unwrap(),
            id,
        );
    }
    let params = [Datum::Int(1_234)];
    let (n, r) = counted(|| db.execute_prepared(&handle, &params).unwrap());
    assert_event(&r, 1_234);
    assert_eq!(n, 4, "embedded prepared point read allocations");
}
