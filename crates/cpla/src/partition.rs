//! Self-adaptive quadruple partitioning (paper §3.2).
//!
//! The grid is first divided uniformly into K×K regions; any region
//! holding more critical segments than the configured bound is split
//! into four quadrants, recursively, until the bound is met or the
//! region degenerates to a single tile (the paper's deadlock guard).
//! Each resulting leaf is an independently solvable subproblem, and
//! leaves carry similar segment counts — the property that balances the
//! per-thread workload.

use std::time::Instant;

use grid::Cell;
use net::{DesignArena, Netlist, SegmentRef};

/// A rectangular tile region `[x0, x1) × [y0, y1)`.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Region {
    /// Inclusive lower x.
    pub x0: u16,
    /// Inclusive lower y.
    pub y0: u16,
    /// Exclusive upper x.
    pub x1: u16,
    /// Exclusive upper y.
    pub y1: u16,
}

impl Region {
    /// Whether `cell` lies inside the region.
    pub fn contains(&self, cell: Cell) -> bool {
        cell.x >= self.x0 && cell.x < self.x1 && cell.y >= self.y0 && cell.y < self.y1
    }

    /// Width in tiles.
    pub fn width(&self) -> u16 {
        self.x1 - self.x0
    }

    /// Height in tiles.
    pub fn height(&self) -> u16 {
        self.y1 - self.y0
    }
}

/// A leaf of the partition tree: a region plus the critical segments
/// whose representative cell falls inside it.
#[derive(Clone, PartialEq, Debug)]
pub struct Partition {
    /// The covered region.
    pub region: Region,
    /// Segments to re-assign within this partition.
    pub segments: Vec<SegmentRef>,
    /// Depth in the quadtree (0 = an original K×K division).
    pub depth: u32,
}

/// Statistics of a partitioning run, for diagnostics and the Fig. 8
/// experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PartitionStats {
    /// Number of non-empty leaves.
    pub leaves: usize,
    /// Maximum quadtree depth reached.
    pub max_depth: u32,
    /// Largest leaf segment count.
    pub max_segments: usize,
    /// Total segments partitioned.
    pub total_segments: usize,
}

/// The representative cell of a segment — its midpoint — used to bucket
/// segments into regions.
pub fn segment_anchor(netlist: &Netlist, seg: SegmentRef) -> Cell {
    let tree = netlist.net(seg.net as usize).tree();
    let s = tree.segment(seg.seg as usize);
    let a = tree.node(s.from as usize).cell;
    let b = tree.node(s.to as usize).cell;
    Cell::new((a.x + b.x) / 2, (a.y + b.y) / 2)
}

/// Partitions `segments` with a K×K uniform division refined by quadtree
/// subdivision until each leaf holds at most `max_segments` (or is a
/// single tile). Empty leaves are dropped.
///
/// Equivalent to [`partition_segments_shifted`] with a zero offset.
///
/// # Panics
///
/// Panics if `k == 0`, `max_segments == 0`, or the grid dimensions are
/// zero.
pub fn partition_segments(
    netlist: &Netlist,
    segments: &[SegmentRef],
    width: u16,
    height: u16,
    k: usize,
    max_segments: usize,
) -> (Vec<Partition>, PartitionStats) {
    partition_segments_shifted(netlist, segments, width, height, k, max_segments, (0, 0))
}

/// [`partition_segments`] with the uniform division origin shifted by
/// `offset` tiles (wrapped into one block size).
///
/// Alternating the offset between optimization rounds moves the
/// partition boundaries, so segments frozen at a cut in one round become
/// interior — and jointly optimizable — in the next. This is the
/// iterative-refinement mechanism that lets block-coordinate rounds
/// escape boundary-induced local minima.
///
/// # Panics
///
/// Panics if `k == 0`, `max_segments == 0`, or the grid dimensions are
/// zero.
pub fn partition_segments_shifted(
    netlist: &Netlist,
    segments: &[SegmentRef],
    width: u16,
    height: u16,
    k: usize,
    max_segments: usize,
    offset: (u16, u16),
) -> (Vec<Partition>, PartitionStats) {
    let anchored: Vec<(SegmentRef, Cell)> = segments
        .iter()
        .map(|&s| (s, segment_anchor(netlist, s)))
        .collect();
    let (leaves, stats, _) =
        partition_anchored(&anchored, width, height, k, max_segments, offset, 1);
    (leaves, stats)
}

/// What one shard of a [`partition_segments_sharded`] run produced, for
/// observability and the merge invariants. Ledgers are per-shard
/// capacity tallies: their `leaves`/`segments` sum and
/// `max_depth`/`max_segments` max reconstruct the merged
/// [`PartitionStats`] exactly.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ShardLedger {
    /// Shard index (`block index % shards` ownership).
    pub shard: usize,
    /// Non-empty top-level blocks this shard refined.
    pub blocks: usize,
    /// Leaves this shard emitted.
    pub leaves: usize,
    /// Deepest quadtree refinement in this shard.
    pub max_depth: u32,
    /// Largest leaf segment count in this shard.
    pub max_segments: usize,
    /// Segments this shard bucketed (each segment anchors in exactly
    /// one block, so these sum to the pool size).
    pub segments: usize,
    /// Start of the shard's work, seconds after the partition call.
    pub start_secs: f64,
    /// Wall time the shard spent bucketing and refining.
    pub dur_secs: f64,
}

/// [`partition_segments_shifted`] with the top-level K×K block grid
/// sharded across `shards` worker threads, anchoring segments through a
/// [`DesignArena`]'s precomputed midpoints instead of per-call tree
/// walks.
///
/// Each top-level block is owned by shard `block_index % shards`; a
/// shard buckets the pool into its blocks and runs the quadtree
/// refinement locally. Blocks are independent (a segment anchors in
/// exactly one block) and the merged leaf list is sorted by region — the
/// same deterministic order the serial path produces — so the result is
/// identical for every shard count.
///
/// # Panics
///
/// Panics if `k == 0`, `max_segments == 0`, the grid dimensions are
/// zero, or a segment reference is outside the arena.
#[allow(clippy::too_many_arguments)] // mirrors partition_segments_shifted + shards
pub fn partition_segments_sharded(
    arena: &DesignArena,
    segments: &[SegmentRef],
    width: u16,
    height: u16,
    k: usize,
    max_segments: usize,
    offset: (u16, u16),
    shards: usize,
) -> (Vec<Partition>, PartitionStats, Vec<ShardLedger>) {
    let anchored: Vec<(SegmentRef, Cell)> = segments
        .iter()
        .map(|&r| {
            (
                r,
                arena.anchor(arena.seg_id(r.net as usize, r.seg as usize)),
            )
        })
        .collect();
    partition_anchored(&anchored, width, height, k, max_segments, offset, shards)
}

/// The shared partition core over pre-anchored segments.
fn partition_anchored(
    anchored: &[(SegmentRef, Cell)],
    width: u16,
    height: u16,
    k: usize,
    max_segments: usize,
    offset: (u16, u16),
    shards: usize,
) -> (Vec<Partition>, PartitionStats, Vec<ShardLedger>) {
    assert!(k > 0, "k must be positive");
    assert!(max_segments > 0, "max_segments must be positive");
    assert!(width > 0 && height > 0, "grid must be non-empty");
    let shards = shards.max(1);

    // Uniform K×K division (ceil-sized blocks cover the whole grid),
    // with the block origin shifted left/down by the (wrapped) offset so
    // an extra partial row/column of blocks covers the grid edges.
    let bw = (width as usize).div_ceil(k) as u16;
    let bh = (height as usize).div_ceil(k) as u16;
    let ox = offset.0 % bw.max(1);
    let oy = offset.1 % bh.max(1);
    let extra_x = u16::from(ox > 0);
    let extra_y = u16::from(oy > 0);
    let mut blocks: Vec<Region> = Vec::new();
    for by in 0..k as u16 + extra_y {
        for bx in 0..k as u16 + extra_x {
            let x0 = (bx * bw).saturating_sub(ox);
            let y0 = (by * bh).saturating_sub(oy);
            let region = Region {
                x0,
                y0,
                x1: ((bx + 1) * bw - ox).min(width),
                y1: ((by + 1) * bh - oy).min(height),
            };
            if region.x0 < region.x1 && region.y0 < region.y1 {
                blocks.push(region);
            }
        }
    }

    let anchor = Instant::now();
    let run_shard = |shard: usize| -> (Vec<Partition>, ShardLedger) {
        let start_secs = anchor.elapsed().as_secs_f64();
        let mut leaves = Vec::new();
        let mut ledger = ShardLedger {
            shard,
            start_secs,
            ..ShardLedger::default()
        };
        for (bi, &region) in blocks.iter().enumerate() {
            if bi % shards != shard {
                continue;
            }
            let members: Vec<usize> = anchored
                .iter()
                .enumerate()
                .filter(|(_, (_, c))| region.contains(*c))
                .map(|(i, _)| i)
                // alloc: seeds this block's work stack, retained until
                // the block's leaves are emitted.
                .collect();
            if members.is_empty() {
                continue;
            }
            ledger.blocks += 1;
            ledger.segments += members.len();
            refine_block(
                anchored,
                region,
                members,
                max_segments,
                &mut leaves,
                &mut ledger,
            );
        }
        ledger.dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
        (leaves, ledger)
    };

    let per_shard: Vec<(Vec<Partition>, ShardLedger)> = if shards == 1 {
        vec![run_shard(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| scope.spawn(move || run_shard(s)))
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "shard workers run no user code and cannot unwind past the refinement \
                          loop"
            )]
            handles
                .into_iter()
                .map(|h| h.join().expect("partition shard panicked"))
                .collect()
        })
    };

    // The serial-merge seam: concatenate shard outputs in shard order,
    // fold the ledgers into the run stats (sum leaves, max depth/size),
    // then impose the deterministic region order. Leaf regions are
    // pairwise distinct, so the sort yields the same list for every
    // shard count — including the serial path's.
    let mut leaves = Vec::new();
    let mut ledgers = Vec::with_capacity(per_shard.len());
    let mut stats = PartitionStats {
        total_segments: anchored.len(),
        ..PartitionStats::default()
    };
    for (shard_leaves, ledger) in per_shard {
        stats.leaves += ledger.leaves;
        stats.max_depth = stats.max_depth.max(ledger.max_depth);
        stats.max_segments = stats.max_segments.max(ledger.max_segments);
        leaves.extend(shard_leaves);
        ledgers.push(ledger);
    }
    // Deterministic order for reproducible parallel scheduling.
    leaves.sort_by_key(|p| (p.region.y0, p.region.x0, p.region.y1, p.region.x1));
    (leaves, stats, ledgers)
}

/// Quadtree-refines one top-level block: the serial pop loop, scoped to
/// the block's members. Leaves land in `leaves`, tallies in `ledger`.
fn refine_block(
    anchored: &[(SegmentRef, Cell)],
    block: Region,
    members: Vec<usize>,
    max_segments: usize,
    leaves: &mut Vec<Partition>,
    ledger: &mut ShardLedger,
) {
    let mut work: Vec<(Region, Vec<usize>, u32)> = vec![(block, members, 0)];
    while let Some((region, members, depth)) = work.pop() {
        let splittable = region.width() > 1 || region.height() > 1;
        if members.len() <= max_segments || !splittable {
            ledger.leaves += 1;
            ledger.max_depth = ledger.max_depth.max(depth);
            ledger.max_segments = ledger.max_segments.max(members.len());
            leaves.push(Partition {
                region,
                // alloc: the leaf owns its segment list past the loop.
                segments: members.iter().map(|&i| anchored[i].0).collect(),
                depth,
            });
            continue;
        }
        // Quadruple split at the midpoint (degenerate axes split in the
        // other axis only).
        let mx = if region.width() > 1 {
            region.x0 + region.width() / 2
        } else {
            region.x1
        };
        let my = if region.height() > 1 {
            region.y0 + region.height() / 2
        } else {
            region.y1
        };
        let quads = [
            Region {
                x0: region.x0,
                y0: region.y0,
                x1: mx,
                y1: my,
            },
            Region {
                x0: mx,
                y0: region.y0,
                x1: region.x1,
                y1: my,
            },
            Region {
                x0: region.x0,
                y0: my,
                x1: mx,
                y1: region.y1,
            },
            Region {
                x0: mx,
                y0: my,
                x1: region.x1,
                y1: region.y1,
            },
        ];
        for q in quads {
            if q.x0 >= q.x1 || q.y0 >= q.y1 {
                continue;
            }
            let sub: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| q.contains(anchored[i].1))
                // alloc: quadrant member lists live on the work stack.
                .collect();
            if !sub.is_empty() {
                work.push((q, sub, depth + 1));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grid::{Cell, Direction, GridBuilder};
    use net::{Net, Pin, RouteTreeBuilder};

    /// A netlist of `n` one-segment nets, with segment midpoints placed
    /// on the given cells.
    fn netlist_at(cells: &[(u16, u16)]) -> Netlist {
        let _ = GridBuilder::new(64, 64)
            .alternating_layers(2, Direction::Horizontal)
            .build()
            .unwrap();
        let mut nl = Netlist::new();
        for (i, &(x, y)) in cells.iter().enumerate() {
            let mut b = RouteTreeBuilder::new(Cell::new(x.saturating_sub(1), y));
            let e = b.add_segment(b.root(), Cell::new(x + 1, y)).unwrap();
            b.attach_pin(b.root(), 0).unwrap();
            b.attach_pin(e, 1).unwrap();
            nl.push(Net::new(
                format!("n{i}"),
                vec![
                    Pin::source(Cell::new(x.saturating_sub(1), y), 0.0),
                    Pin::sink(Cell::new(x + 1, y), 1.0),
                ],
                b.build().unwrap(),
            ));
        }
        nl
    }

    fn refs(nl: &Netlist) -> Vec<SegmentRef> {
        nl.segment_refs().collect()
    }

    #[test]
    fn all_segments_end_up_in_exactly_one_leaf() {
        let nl = netlist_at(&[(5, 5), (5, 6), (40, 40), (60, 3), (33, 33)]);
        let segs = refs(&nl);
        let (leaves, stats) = partition_segments(&nl, &segs, 64, 64, 3, 2);
        let total: usize = leaves.iter().map(|l| l.segments.len()).sum();
        assert_eq!(total, segs.len());
        assert_eq!(stats.total_segments, segs.len());
        // No duplicates.
        let mut all: Vec<SegmentRef> = leaves.iter().flat_map(|l| l.segments.clone()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), segs.len());
    }

    #[test]
    fn dense_cluster_forces_subdivision() {
        // 9 segments all near (10,10): with max 2 per leaf, the K×K block
        // containing them must split.
        let cells: Vec<(u16, u16)> = (0..9).map(|i| (8 + (i % 3) * 2, 8 + (i / 3) * 2)).collect();
        let nl = netlist_at(&cells);
        let segs = refs(&nl);
        let (leaves, stats) = partition_segments(&nl, &segs, 64, 64, 2, 2);
        assert!(stats.max_depth >= 1, "{stats:?}");
        assert!(leaves
            .iter()
            .all(|l| l.segments.len() <= 2 || (l.region.width() == 1 && l.region.height() == 1)));
    }

    #[test]
    fn loose_bound_keeps_uniform_divisions() {
        let nl = netlist_at(&[(5, 5), (40, 40)]);
        let segs = refs(&nl);
        let (leaves, stats) = partition_segments(&nl, &segs, 64, 64, 100, 4);
        assert_eq!(stats.max_depth, 0);
        assert_eq!(leaves.len(), 2); // only non-empty divisions survive
    }

    #[test]
    fn single_tile_regions_stop_splitting() {
        // Pile 5 segments onto one cell with bound 1: the quadtree must
        // bottom out at a 1×1 region holding all of them (deadlock guard).
        let nl = netlist_at(&[(9, 9); 5]);
        let segs = refs(&nl);
        let (leaves, _) = partition_segments(&nl, &segs, 64, 64, 4, 1);
        let crowded: Vec<_> = leaves.iter().filter(|l| l.segments.len() > 1).collect();
        assert_eq!(crowded.len(), 1);
        assert_eq!(crowded[0].region.width(), 1);
        assert_eq!(crowded[0].region.height(), 1);
    }

    #[test]
    fn leaves_are_deterministically_ordered() {
        let nl = netlist_at(&[(5, 5), (40, 40), (60, 3), (20, 50)]);
        let segs = refs(&nl);
        let (a, _) = partition_segments(&nl, &segs, 64, 64, 4, 1);
        let (b, _) = partition_segments(&nl, &segs, 64, 64, 4, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn anchor_is_segment_midpoint() {
        let nl = netlist_at(&[(10, 20)]);
        let anchor = segment_anchor(&nl, SegmentRef::new(0, 0));
        assert_eq!(anchor, Cell::new(10, 20));
    }

    #[test]
    fn shifted_partitions_still_cover_every_segment() {
        let nl = netlist_at(&[(5, 5), (40, 40), (60, 3), (20, 50), (63, 63)]);
        let segs = refs(&nl);
        for offset in [(0u16, 0u16), (3, 3), (8, 1), (15, 15)] {
            let (leaves, _) = partition_segments_shifted(&nl, &segs, 64, 64, 4, 2, offset);
            let mut all: Vec<SegmentRef> = leaves.iter().flat_map(|l| l.segments.clone()).collect();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), segs.len(), "offset {offset:?}");
            // Regions must not overlap.
            for (i, a) in leaves.iter().enumerate() {
                for b in &leaves[i + 1..] {
                    let overlap_x = a.region.x0 < b.region.x1 && b.region.x0 < a.region.x1;
                    let overlap_y = a.region.y0 < b.region.y1 && b.region.y0 < a.region.y1;
                    assert!(
                        !(overlap_x && overlap_y),
                        "regions overlap at offset {offset:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_partitions_match_serial_for_every_shard_count() {
        let cells: Vec<(u16, u16)> = (0..40)
            .map(|i| (3 + (i * 7) % 58, 2 + (i * 13) % 60))
            .collect();
        let nl = netlist_at(&cells);
        let segs = refs(&nl);
        let arena = DesignArena::from_netlist(&nl);
        for offset in [(0u16, 0u16), (8, 8), (3, 11)] {
            let (serial, sstats) = partition_segments_shifted(&nl, &segs, 64, 64, 4, 3, offset);
            for shards in 1..=8 {
                let (leaves, stats, ledgers) =
                    partition_segments_sharded(&arena, &segs, 64, 64, 4, 3, offset, shards);
                assert_eq!(leaves, serial, "offset {offset:?} shards {shards}");
                assert_eq!(stats, sstats, "offset {offset:?} shards {shards}");
                assert_eq!(ledgers.len(), shards);
            }
        }
    }

    #[test]
    fn ledgers_reconstruct_the_merged_stats() {
        let cells: Vec<(u16, u16)> = (0..25).map(|i| (2 + i * 2, 2 + (i * 5) % 60)).collect();
        let nl = netlist_at(&cells);
        let segs = refs(&nl);
        let arena = DesignArena::from_netlist(&nl);
        let (_, stats, ledgers) =
            partition_segments_sharded(&arena, &segs, 64, 64, 4, 2, (0, 0), 4);
        let leaves: usize = ledgers.iter().map(|l| l.leaves).sum();
        let bucketed: usize = ledgers.iter().map(|l| l.segments).sum();
        let depth = ledgers.iter().map(|l| l.max_depth).max().unwrap();
        let widest = ledgers.iter().map(|l| l.max_segments).max().unwrap();
        assert_eq!(leaves, stats.leaves);
        assert_eq!(bucketed, stats.total_segments);
        assert_eq!(depth, stats.max_depth);
        assert_eq!(widest, stats.max_segments);
        for (i, l) in ledgers.iter().enumerate() {
            assert_eq!(l.shard, i);
        }
    }

    #[test]
    fn arena_anchors_match_tree_walk_anchors() {
        let nl = netlist_at(&[(10, 20), (31, 7), (55, 44)]);
        let arena = DesignArena::from_netlist(&nl);
        for r in refs(&nl) {
            let walked = segment_anchor(&nl, r);
            let flat = arena.anchor(arena.seg_id(r.net as usize, r.seg as usize));
            assert_eq!(walked, flat, "{r:?}");
        }
    }

    #[test]
    fn shifted_offset_moves_the_cuts() {
        // Two segments straddling the unshifted block boundary at x=16
        // end up in one leaf once the origin shifts by half a block.
        let nl = netlist_at(&[(15, 8), (17, 8)]);
        let segs = refs(&nl);
        let (plain, _) = partition_segments_shifted(&nl, &segs, 64, 64, 4, 10, (0, 0));
        let (shifted, _) = partition_segments_shifted(&nl, &segs, 64, 64, 4, 10, (8, 8));
        let together = |leaves: &[Partition]| leaves.iter().any(|l| l.segments.len() == 2);
        assert!(!together(&plain), "x=16 cut separates the pair");
        assert!(together(&shifted), "shifted cut reunites the pair");
    }
}
