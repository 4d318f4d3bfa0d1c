//! The engine-side runtime of the approximate tier: LSH buckets
//! declustered over the disk array.
//!
//! [`parsim_index::LshTables`] supplies the hash-function family; this
//! module owns its *placement*. Every `(table, signature)` bucket is a
//! `K`-bit quadrant code, so it goes through the paper's own coloring —
//! [`parsim_decluster::near_optimal::col`] over the signature bits,
//! complement-folded to the available disks — exactly as the exact tier
//! declusters its data buckets. Hamming-1 neighbor buckets get different
//! colors, and multi-probe widening flips low-margin signature bits
//! first, so the probe set of one query spreads over *different* disks
//! and the thread-per-disk pipeline, deadline shedding, and fault
//! handling of the worker pool carry over unchanged. A per-table disk
//! rotation keeps the aggregate load balanced across tables.
//!
//! Each disk holds one `DiskShard`: a flat [`VectorArena`] of the rows
//! hashed to that disk (deduplicated by item — several tables may send
//! the same item to one disk) plus the bucket directory. Bucket scans
//! charge pages to the owning disk at the same `rows → pages` rate as the
//! exact tier's leaf scans, so modeled times, `QueryCost`, and the
//! metrics registry need no new accounting path. When the engine is
//! replicated, every shard also has a full mirror hosted on the next
//! disk; a failed-over probe scans the mirror and charges the host.

use std::collections::BTreeMap;

use parsim_decluster::near_optimal::{col, colors_required, fold_table};
use parsim_geometry::{kernel, Point};
use parsim_index::knn::{Neighbor, SearchStats};
use parsim_index::{LshConfig, LshTables};
use parsim_storage::{VectorArena, PAGE_SIZE};

use crate::metrics::QueryTrace;

/// LSH-specific work counters of one query, carried next to the
/// [`SearchStats`] and folded into the trace at completion.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LshCounters {
    /// Buckets probed (over all tables and disks).
    pub(crate) probes: u64,
    /// Unique candidate rows whose exact distance was computed.
    pub(crate) candidates: u64,
    /// Probed buckets that held no rows — the recall proxy: a rising
    /// empty-probe share means the probe budget is wasted on vacuum.
    pub(crate) empty_probes: u64,
}

impl LshCounters {
    /// Copies the counters into the query's trace.
    pub(crate) fn fold_into(self, trace: &mut QueryTrace) {
        trace.lsh_probes = self.probes;
        trace.lsh_candidates = self.candidates;
        trace.lsh_empty_probes = self.empty_probes;
    }
}

/// The probe targets of one query on one disk: every `(table, signature)`
/// bucket of the query's probe sequences that this disk owns.
#[derive(Debug, Clone)]
pub(crate) struct DiskProbes {
    /// The owning disk (primary placement).
    pub(crate) disk: usize,
    /// The buckets to inspect there.
    pub(crate) buckets: Vec<(u32, u32)>,
}

/// One disk's slice of the LSH index.
pub(crate) struct DiskShard {
    /// Rows stored on this disk, flat row-major.
    arena: VectorArena,
    /// `items[r]` is the item id of arena row `r`.
    items: Vec<u64>,
    /// `(table, signature) → rows`, ordered for deterministic layout.
    buckets: BTreeMap<(u32, u32), Vec<u32>>,
}

impl DiskShard {
    fn new(dim: usize) -> DiskShard {
        DiskShard {
            arena: VectorArena::new(dim),
            items: Vec::new(),
            buckets: BTreeMap::new(),
        }
    }
}

/// The fitted, placed LSH index: the hash family plus one shard per disk
/// (and one mirror shard per disk when the engine is replicated).
pub(crate) struct LshRuntime {
    config: LshConfig,
    tables: LshTables,
    /// Color → disk, `fold_table` over the signature-bit coloring.
    fold: Vec<u32>,
    /// Disks that can own primary shards (`min(disks, colors)`).
    usable: usize,
    /// Total disks of the engine (mirror hosts may exceed `usable`).
    disks: usize,
    shards: Vec<DiskShard>,
    /// `mirrors[d]` is a full copy of shard `d`, hosted on
    /// `mirror_host(d)`; empty when the engine has no replicas.
    mirrors: Vec<DiskShard>,
    /// Rows per page of a bucket scan — the exact tier's leaf-entry math.
    rows_per_page: usize,
}

impl LshRuntime {
    /// Fits the hash family to `items` and builds the per-disk shards.
    /// `mirrored` additionally materializes one full mirror shard per
    /// disk (the engine guarantees `disks >= 2` in that case).
    pub(crate) fn build(
        config: LshConfig,
        dim: usize,
        items: &[(Point, u64)],
        disks: usize,
        mirrored: bool,
    ) -> LshRuntime {
        let tables = LshTables::fit(&config, dim, items.iter().map(|(p, _)| p.coords()));
        let bits = tables.bits();
        let colors = colors_required(bits) as usize;
        let usable = disks.min(colors).max(1);
        let fold = fold_table(colors as u32, usable);
        let rows_per_page = (PAGE_SIZE / (8 * dim + 8)).max(1);
        let mut rt = LshRuntime {
            config,
            tables,
            fold,
            usable,
            disks,
            shards: (0..disks).map(|_| DiskShard::new(dim)).collect(),
            mirrors: if mirrored {
                (0..disks).map(|_| DiskShard::new(dim)).collect()
            } else {
                Vec::new()
            },
            rows_per_page,
        };
        // Per-disk item → row map, so an item hashed to one disk by
        // several tables is stored (and later scanned) once.
        let mut row_of: Vec<BTreeMap<u64, u32>> = vec![BTreeMap::new(); disks];
        for (p, item) in items {
            for t in 0..rt.tables.tables() {
                let sig = rt.tables.signature(t, p.coords());
                let disk = rt.disk_of(t, sig);
                let row = *row_of[disk].entry(*item).or_insert_with(|| {
                    let r = rt.shards[disk].items.len() as u32;
                    rt.shards[disk].arena.push(p.coords());
                    rt.shards[disk].items.push(*item);
                    if mirrored {
                        rt.mirrors[disk].arena.push(p.coords());
                        rt.mirrors[disk].items.push(*item);
                    }
                    r
                });
                let bucket = rt.shards[disk].buckets.entry((t as u32, sig)).or_default();
                if bucket.last() != Some(&row) {
                    bucket.push(row);
                }
                if mirrored {
                    let mb = rt.mirrors[disk].buckets.entry((t as u32, sig)).or_default();
                    if mb.last() != Some(&row) {
                        mb.push(row);
                    }
                }
            }
        }
        rt
    }

    /// The build-time configuration.
    pub(crate) fn config(&self) -> LshConfig {
        self.config
    }

    /// The primary disk of bucket `(table, sig)`: the paper's coloring
    /// over the signature bits, folded to the usable disks and rotated by
    /// the table index so no single disk carries every table's hot
    /// bucket. The rotation is a per-table bijection, so Hamming-1 probe
    /// targets still land on distinct disks within each table.
    fn disk_of(&self, table: usize, sig: u32) -> usize {
        let color = col(sig as u64, self.tables.bits()) as usize;
        (self.fold[color] as usize + table) % self.usable
    }

    /// The disk hosting the mirror copy of `disk`'s shard, or `None` for
    /// an unreplicated engine.
    pub(crate) fn mirror_host(&self, disk: usize) -> Option<usize> {
        (!self.mirrors.is_empty()).then(|| (disk + 1) % self.disks)
    }

    /// Groups the query's probe targets — `probes` buckets per table, in
    /// multi-probe order — by owning disk, ascending. This is the
    /// query's LSH itinerary for the pooled pipeline.
    pub(crate) fn plan(&self, query: &Point, probes: usize) -> Vec<DiskProbes> {
        let probes = probes.max(1);
        let mut by_disk: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
        for t in 0..self.tables.tables() {
            for sig in self.tables.probe_sequence(t, query.coords(), probes) {
                by_disk
                    .entry(self.disk_of(t, sig))
                    .or_default()
                    .push((t as u32, sig));
            }
        }
        by_disk
            .into_iter()
            .map(|(disk, buckets)| DiskProbes { disk, buckets })
            .collect()
    }

    /// Scans `disk`'s primary shard for the given probe targets: charges
    /// pages to `stats`, computes the exact f64 distance of every
    /// first-seen row, and returns that disk's candidates sorted
    /// `(dist, item)` and truncated to `k` (the global top-`k` is a
    /// subset of the union of per-disk top-`k`s).
    pub(crate) fn scan_disk(
        &self,
        disk: usize,
        buckets: &[(u32, u32)],
        query: &Point,
        k: usize,
        stats: &mut SearchStats,
        counters: &mut LshCounters,
    ) -> Vec<Neighbor> {
        self.scan_shard(&self.shards[disk], buckets, query, k, stats, counters)
    }

    /// Scans the mirror copy of `disk`'s shard (the failover path). The
    /// caller charges `stats` of the *host* disk.
    pub(crate) fn scan_mirror(
        &self,
        disk: usize,
        buckets: &[(u32, u32)],
        query: &Point,
        k: usize,
        stats: &mut SearchStats,
        counters: &mut LshCounters,
    ) -> Vec<Neighbor> {
        self.scan_shard(&self.mirrors[disk], buckets, query, k, stats, counters)
    }

    fn scan_shard(
        &self,
        shard: &DiskShard,
        buckets: &[(u32, u32)],
        query: &Point,
        k: usize,
        stats: &mut SearchStats,
        counters: &mut LshCounters,
    ) -> Vec<Neighbor> {
        let mut seen = std::collections::HashSet::new();
        // `(dist, item, row)`: the distance is `Point::dist`'s arithmetic on
        // the arena slice, so only the kept `k` rows become `Point`s.
        let mut scored: Vec<(f64, u64, usize)> = Vec::new();
        for key in buckets {
            counters.probes += 1;
            let Some(rows) = shard.buckets.get(key).filter(|r| !r.is_empty()) else {
                counters.empty_probes += 1;
                continue;
            };
            stats.pages += (rows.len().div_ceil(self.rows_per_page)).max(1) as u64;
            for &row in rows {
                if !seen.insert(row) {
                    continue;
                }
                let row = row as usize;
                stats.dist_evals += 1;
                counters.candidates += 1;
                let dist = kernel::dist2(shard.arena.row(row), query.coords()).sqrt();
                scored.push((dist, shard.items[row], row));
            }
        }
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(dist, item, row)| Neighbor {
                item,
                point: Point::from_vec(shard.arena.row(row).to_vec()),
                dist,
            })
            .collect()
    }

    /// A deterministic byte serialization of every shard's bucket layout
    /// — disks in order, buckets in `(table, signature)` order, rows as
    /// item ids. Two runtimes built from the same `(config, items)` are
    /// byte-identical here; the seeded-determinism regression test pins
    /// exactly that.
    pub(crate) fn layout_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for shard in &self.shards {
            out.extend_from_slice(&(shard.buckets.len() as u64).to_le_bytes());
            for (&(t, sig), rows) in &shard.buckets {
                out.extend_from_slice(&t.to_le_bytes());
                out.extend_from_slice(&sig.to_le_bytes());
                out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
                for &row in rows {
                    out.extend_from_slice(&shard.items[row as usize].to_le_bytes());
                }
            }
        }
        out
    }
}

/// Merges per-disk LSH candidate lists into the global top `k`,
/// deduplicating by item: an item stored on several disks (different
/// tables) appears once per disk, always with the same bit-identical
/// distance (one canonical kernel), so duplicates are adjacent after the
/// `(dist, item)` sort and collapse cleanly.
pub(crate) fn merge_unique_candidates<'a>(
    locals: impl Iterator<Item = &'a [Neighbor]>,
    k: usize,
) -> Vec<Neighbor> {
    let mut merged: Vec<Neighbor> = locals.flatten().cloned().collect();
    merged.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.item.cmp(&b.item)));
    merged.dedup_by_key(|n| n.item);
    merged.truncate(k);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_datagen::{DataGenerator, UniformGenerator};

    fn items(n: usize, dim: usize, seed: u64) -> Vec<(Point, u64)> {
        UniformGenerator::new(dim)
            .generate(n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect()
    }

    #[test]
    fn every_item_is_reachable_through_its_own_signature() {
        let data = items(500, 6, 21);
        let cfg = LshConfig::new(3).tables(4).hyperplanes(8);
        let rt = LshRuntime::build(cfg, 6, &data, 8, false);
        for (p, item) in &data {
            // Probing the item's own buckets with probes=1 must surface it.
            let plan = rt.plan(p, 1);
            let mut found = false;
            for dp in &plan {
                let mut stats = SearchStats::default();
                let mut c = LshCounters::default();
                let local = rt.scan_disk(dp.disk, &dp.buckets, p, usize::MAX, &mut stats, &mut c);
                if local.iter().any(|n| n.item == *item && n.dist == 0.0) {
                    found = true;
                }
            }
            assert!(found, "item {item} not found through its own signature");
        }
    }

    #[test]
    fn probe_targets_of_one_table_spread_over_disks() {
        let data = items(400, 8, 5);
        let cfg = LshConfig::new(11).tables(1).hyperplanes(10);
        let rt = LshRuntime::build(cfg, 8, &data, 8, false);
        let q = &data[7].0;
        // The first 4 probes of table 0 are the signature and 3 Hamming-1
        // flips: the coloring sends each flip to a different disk.
        let plan = rt.plan(q, 4);
        let targets: usize = plan.iter().map(|d| d.buckets.len()).sum();
        assert_eq!(targets, 4);
        assert!(plan.len() >= 3, "probes landed on {} disks", plan.len());
    }

    #[test]
    fn layout_is_deterministic_and_seed_sensitive() {
        let data = items(300, 5, 9);
        let cfg = LshConfig::new(7).tables(3).hyperplanes(9);
        let a = LshRuntime::build(cfg, 5, &data, 6, false);
        let b = LshRuntime::build(cfg, 5, &data, 6, false);
        assert_eq!(a.layout_bytes(), b.layout_bytes());
        let other = LshRuntime::build(
            LshConfig::new(8).tables(3).hyperplanes(9),
            5,
            &data,
            6,
            false,
        );
        assert_ne!(a.layout_bytes(), other.layout_bytes());
    }

    #[test]
    fn mirrors_replicate_the_shard_content() {
        let data = items(200, 4, 3);
        let cfg = LshConfig::new(2).tables(2).hyperplanes(6);
        let rt = LshRuntime::build(cfg, 4, &data, 4, true);
        let q = &data[11].0;
        let plan = rt.plan(q, 2);
        for dp in &plan {
            let (mut s1, mut s2) = (SearchStats::default(), SearchStats::default());
            let (mut c1, mut c2) = (LshCounters::default(), LshCounters::default());
            let prim = rt.scan_disk(dp.disk, &dp.buckets, q, 10, &mut s1, &mut c1);
            let mirr = rt.scan_mirror(dp.disk, &dp.buckets, q, 10, &mut s2, &mut c2);
            assert_eq!(prim, mirr);
            assert_eq!(s1.pages, s2.pages);
            assert!(rt.mirror_host(dp.disk).is_some());
            assert_ne!(rt.mirror_host(dp.disk), Some(dp.disk));
        }
    }

    #[test]
    fn merge_unique_collapses_cross_disk_duplicates() {
        let p = Point::new(vec![0.1, 0.2]).unwrap();
        let n = |item: u64, dist: f64| Neighbor {
            item,
            point: p.clone(),
            dist,
        };
        let a = vec![n(1, 0.5), n(2, 0.7)];
        let b = vec![n(1, 0.5), n(3, 0.6)];
        let merged = merge_unique_candidates([a.as_slice(), b.as_slice()].into_iter(), 10);
        let ids: Vec<u64> = merged.iter().map(|m| m.item).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }
}
