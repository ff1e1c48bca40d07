//! The allocation budget of a prepared single-row write.
//!
//! INSERT, UPDATE and DELETE are bound once, when they are prepared: an
//! execution evaluates the bound form against its parameters, routes a
//! key-fixed statement to its shard without collecting a shard set, and
//! the data node indexes a new version straight from its row. A counting
//! allocator pins the exact number for each statement on a replicated
//! 4-shard `DistDb`: an exact count, unlike a timing, does not depend on
//! the host.
//!
//! Each count is the fewest allocations over eight consecutive statements:
//! a heap vector's amortized doubling or an index B-tree split lands on one
//! statement in many and is not part of any one statement's cost.
//!
//! Before statements were bound once, each execution cloned the statement's
//! AST, substituted its parameters and bound it again, and a prepared
//! INSERT made 18 allocations, an UPDATE by shard key 39 and a DELETE by
//! shard key 32.
//!
//! The 5 allocations of a prepared INSERT:
//! * the single-shard transaction's local snapshot (one B-tree node);
//! * the new row;
//! * the row's copy in the redo record the follower replays;
//! * the transaction's undo list and its redo list on the data node.
//!
//! The 8 of a prepared UPDATE by shard key: the snapshot; the new row; the
//! leg's target list; the redo record's old and new images; the shard-key
//! posting list, which now holds two versions; the undo and redo lists.
//!
//! The 5 of a prepared DELETE by shard key: the snapshot; the leg's target
//! list; the redo record's old image; the undo and redo lists.
//!
//! The same UPDATE and DELETE as raw text also parse and bind the
//! statement, resolving its columns against the catalog's schema in place:
//! 37 and 29 allocations (52 and 44 while binding copied every column name
//! into a fresh scope).

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::Datum;
use huawei_dm::sql::{QueryApi, StmtHandle};
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

/// The `perf` `write_mix` set-up at a small size: replicated, analyzed and
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

/// The fewest allocations one execution of `handle` made, over one
/// execution per parameter list in `runs`; every execution writes one row.
fn fewest_allocs(db: &mut DistDb, handle: &StmtHandle, runs: &[Vec<Datum>]) -> u64 {
    runs.iter()
        .map(|params| {
            let before = ALLOCS.with(Cell::get);
            let r = db.execute_prepared(handle, params).unwrap();
            let n = ALLOCS.with(Cell::get) - before;
            assert_eq!(r.affected, 1, "{params:?}");
            n
        })
        .min()
        .unwrap()
}

#[test]
fn a_prepared_write_allocates_its_rows_and_its_transaction() {
    let mut db = loaded_db();
    let insert = db
        .prepare_handle("insert into events values (?, ?, ?, ?)")
        .unwrap();
    let update = db
        .prepare_handle("update events set val = ? where id = ?")
        .unwrap();
    let delete = db
        .prepare_handle("delete from events where id = ?")
        .unwrap();
    let row = |id: i64| vec![Datum::Int(id), Datum::Int(1), Datum::Int(2), Datum::Int(3)];
    let set = |id: i64| vec![Datum::Int(9), Datum::Int(id)];
    let key = |id: i64| vec![Datum::Int(id)];
    // Warm every statement shape and the transaction machinery.
    let warm: Vec<_> = (ROWS..ROWS + 64).map(row).collect();
    fewest_allocs(&mut db, &insert, &warm);
    fewest_allocs(&mut db, &update, &(0..32).map(set).collect::<Vec<_>>());
    fewest_allocs(&mut db, &delete, &(100..132).map(key).collect::<Vec<_>>());

    let inserts: Vec<_> = (ROWS + 64..ROWS + 72).map(row).collect();
    assert_eq!(
        fewest_allocs(&mut db, &insert, &inserts),
        5,
        "prepared INSERT"
    );
    let updates: Vec<_> = (200..208).map(set).collect();
    assert_eq!(
        fewest_allocs(&mut db, &update, &updates),
        8,
        "prepared UPDATE by key"
    );
    let deletes: Vec<_> = (300..308).map(key).collect();
    assert_eq!(
        fewest_allocs(&mut db, &delete, &deletes),
        5,
        "prepared DELETE by key"
    );

    // Raw text is parsed and bound per statement, against the catalog's
    // schema in place.
    let fewest_raw = |db: &mut DistDb, sqls: Vec<String>| {
        sqls.iter()
            .map(|sql| {
                let before = ALLOCS.with(Cell::get);
                let r = db.execute(sql).unwrap();
                let n = ALLOCS.with(Cell::get) - before;
                assert_eq!(r.affected, 1, "{sql}");
                n
            })
            .min()
            .unwrap()
    };
    let raw_updates = (400..408)
        .map(|id| format!("update events set val = 9 where id = {id}"))
        .collect();
    assert_eq!(fewest_raw(&mut db, raw_updates), 37, "raw UPDATE by key");
    let raw_deletes = (500..508)
        .map(|id| format!("delete from events where id = {id}"))
        .collect();
    assert_eq!(fewest_raw(&mut db, raw_deletes), 29, "raw DELETE by key");
}
