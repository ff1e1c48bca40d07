//! `tpcc_ms`: the paper's Fig 3 "MS" mix run functionally on the KV
//! `Cluster` API — 16 warehouses, 2 reads + 2 writes, 90% single-shard,
//! multi-shard transactions span 2 warehouses.
//!
//! Why: it bypasses `hdm-sql` entirely. The median is the GTM-free
//! single-shard path, the tail the multi-shard `MergeSnapshot` (Alg. 1) +
//! 2PC path, and throughput decays with version-chain and LCO growth — the
//! workload a vacuum or LCO-prune change must move.

use crate::data::{self, StreamHash};
use crate::workload::{Class, Generator, Probe, Sizes, Workload};
use hdm_cluster::{make_key, Cluster, DistDb, TxnOptions};
use hdm_common::SplitMix64;
use hdm_workloads::{OpSpec, TpccConfig, TpccGenerator, TxnSpec};
use std::collections::{HashMap, VecDeque};

#[derive(Clone)]
pub struct Op {
    pub spec: TxnSpec,
    /// What each `Read` of `spec` must return, in order.
    pub reads: Vec<i64>,
}

fn config(seed: u64) -> TpccConfig {
    TpccConfig {
        seed,
        ..TpccConfig::ms()
    }
}

/// Value every key is loaded with at set-up.
fn initial(key: i64) -> i64 {
    key & 0xffff
}

pub struct Gen {
    inner: TpccGenerator,
    /// 9 single-shard transactions to 1 multi-shard, exactly: the
    /// generator's own draws, re-ordered through two queues.
    mix: data::Mix,
    rng: SplitMix64,
    queued: [VecDeque<TxnSpec>; 2],
    /// Keys written since set-up; the rest still hold `initial(key)`.
    pub ledger: HashMap<i64, i64>,
}

impl Generator for Gen {
    type Op = Op;

    fn new(seed: u64, _sizes: Sizes) -> Self {
        Self {
            inner: TpccGenerator::new(config(seed)),
            mix: data::Mix::new(&[9, 1]),
            rng: SplitMix64::new(seed ^ 0x7470_6363),
            queued: Default::default(),
            ledger: HashMap::new(),
        }
    }

    fn next_op(&mut self) -> Op {
        let kind = self.mix.next(&mut self.rng) as usize;
        let spec = loop {
            if let Some(spec) = self.queued[kind].pop_front() {
                break spec;
            }
            let drawn = self.inner.next_txn();
            self.queued[!drawn.is_single_shard() as usize].push_back(drawn);
        };
        let mut reads = Vec::new();
        for op in &spec.ops {
            match *op {
                OpSpec::Read(k) => reads.push(*self.ledger.get(&k).unwrap_or(&initial(k))),
                OpSpec::Write(k, v) => {
                    self.ledger.insert(k, v);
                }
            }
        }
        Op { spec, reads }
    }
}

pub struct TpccMs {
    cluster: Cluster,
    keys: Vec<i64>,
}

impl TpccMs {
    fn txn<P: Probe>(&mut self, op: &Op, p: &mut P) -> hdm_common::Result<bool> {
        let c = &mut self.cluster;
        let single = op.spec.is_single_shard();
        let mut txn = match op.spec.single_prefix {
            Some(w) => p.span(Class::BeginSingle, || c.begin(TxnOptions::single(w)))?,
            None => p.span(Class::BeginMulti, || c.begin(TxnOptions::multi()))?,
        };
        let mut ok = true;
        let mut reads = op.reads.iter();
        for o in &op.spec.ops {
            let step = match *o {
                OpSpec::Read(k) => p
                    .span(Class::Get, || c.get(&mut txn, k))
                    .map(|v| ok &= v == reads.next().copied()),
                OpSpec::Write(k, v) => p.span(Class::Put, || c.put(&mut txn, k, v)),
            };
            if let Err(e) = step {
                c.abort(txn)?;
                return Err(e);
            }
        }
        let class = if single {
            Class::CommitSingle
        } else {
            Class::CommitMulti
        };
        p.span(class, || c.commit(txn))?;
        Ok(ok)
    }
}

impl Workload for TpccMs {
    type Op = Op;
    type Gen = Gen;

    const NAME: &'static str = "tpcc_ms";
    /// Keys loaded: warehouses × items per warehouse.
    const ROWS: i64 = 16 * 1024;
    const OPS_PER_SECOND: usize = 12_000;
    const BLOCK: usize = 10;

    fn setup(seed: u64, _sizes: Sizes) -> Self {
        let cfg = config(seed);
        let mut cluster = Cluster::new(data::cluster_config());
        let mut keys = Vec::new();
        for w in 0..cfg.warehouses {
            // One loading transaction per 256 items.
            for chunk in (0..cfg.items_per_warehouse).collect::<Vec<_>>().chunks(256) {
                let mut txn = cluster.begin(TxnOptions::single(w)).expect("load begin");
                for &item in chunk {
                    let k = make_key(w, item);
                    cluster.put(&mut txn, k, initial(k)).expect("load put");
                    keys.push(k);
                }
                cluster.commit(txn).expect("load commit");
            }
        }
        cluster.pump_replication(0).expect("initial pump");
        let mut w = Self { cluster, keys };
        // Warm-up: read-only transactions on both paths leave the ledger as
        // loaded.
        for i in 0..256u32 {
            let k = make_key(i % cfg.warehouses, i);
            let opts = if i % 8 == 0 {
                TxnOptions::multi()
            } else {
                TxnOptions::single(i % cfg.warehouses)
            };
            let mut txn = w.cluster.begin(opts).expect("warm-up begin");
            assert_eq!(
                w.cluster.get(&mut txn, k).expect("warm-up get"),
                Some(initial(k))
            );
            w.cluster.commit(txn).expect("warm-up commit");
        }
        w
    }

    fn class(op: &Op) -> Class {
        if op.spec.is_single_shard() {
            Class::TxnSingle
        } else {
            Class::TxnMulti
        }
    }

    fn digest(op: &Op, h: &mut StreamHash) {
        h.word(op.spec.single_prefix.map_or(u64::MAX, u64::from));
        for o in &op.spec.ops {
            match *o {
                OpSpec::Read(k) => h.word(k as u64),
                OpSpec::Write(k, v) => {
                    h.word(!(k as u64));
                    h.word(v as u64);
                }
            }
        }
    }

    #[inline]
    fn run<P: Probe>(&mut self, op: &Op, probe: &mut P) -> bool {
        self.txn(op, probe).unwrap_or(false)
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    fn dist(&self) -> Option<&DistDb> {
        None
    }

    fn live_rows(&self, _gen: &Gen) -> u64 {
        self.keys.len() as u64
    }

    fn finish(&mut self, gen: &Gen) -> Vec<String> {
        let mut want: Vec<(i64, i64)> = self
            .keys
            .iter()
            .map(|&k| (k, *gen.ledger.get(&k).unwrap_or(&initial(k))))
            .collect();
        want.sort_unstable();
        let got = self.cluster.snapshot_all();
        if got == want {
            Vec::new()
        } else {
            let diff = got.iter().zip(&want).filter(|(a, b)| a != b).count();
            vec![format!(
                "ledger not conserved: {} keys stored, {} expected, {diff} differ",
                got.len(),
                want.len()
            )]
        }
    }
}
