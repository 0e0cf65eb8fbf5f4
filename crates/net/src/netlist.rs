//! Collections of nets and global segment addressing.

use crate::Net;

/// Address of one segment within a [`Netlist`]: net index + segment index
/// inside that net's tree.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SegmentRef {
    /// Net index within the netlist.
    pub net: u32,
    /// Segment index within the net's tree.
    pub seg: u32,
}

impl SegmentRef {
    /// Creates a segment reference.
    pub fn new(net: u32, seg: u32) -> SegmentRef {
        SegmentRef { net, seg }
    }
}

/// An ordered collection of [`Net`]s — the design under optimization.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Netlist {
    nets: Vec<Net>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Netlist {
        Netlist { nets: Vec::new() }
    }

    /// Creates an empty netlist with room for `capacity` nets.
    pub fn with_capacity(capacity: usize) -> Netlist {
        Netlist {
            nets: Vec::with_capacity(capacity),
        }
    }

    /// Appends a net, returning its index.
    pub fn push(&mut self, net: Net) -> usize {
        self.nets.push(net);
        self.nets.len() - 1
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The net with index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn net(&self, i: usize) -> &Net {
        &self.nets[i]
    }

    /// Mutable access to net `i` (used by routers).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn net_mut(&mut self, i: usize) -> &mut Net {
        &mut self.nets[i]
    }

    /// Number of nets.
    pub fn len(&self) -> usize {
        self.nets.len()
    }

    /// Whether the netlist is empty.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Total segment count across all nets.
    pub fn num_segments(&self) -> usize {
        self.nets.iter().map(|n| n.tree().num_segments()).sum()
    }

    /// Iterates over every segment of every net.
    pub fn segment_refs(&self) -> impl Iterator<Item = SegmentRef> + '_ {
        self.nets.iter().enumerate().flat_map(|(ni, n)| {
            // cast: net/segment ordinals come from the u32-indexed arena.
            (0..n.tree().num_segments()).map(move |si| SegmentRef::new(ni as u32, si as u32))
        })
    }

    /// Validates every net against the grid dimensions.
    ///
    /// # Errors
    ///
    /// Returns the first violation, prefixed with the net index.
    pub fn validate(&self, width: u16, height: u16) -> Result<(), String> {
        for (i, n) in self.nets.iter().enumerate() {
            n.validate(width, height)
                .map_err(|e| format!("net {i}: {e}"))?;
        }
        Ok(())
    }
}

impl FromIterator<Net> for Netlist {
    fn from_iter<T: IntoIterator<Item = Net>>(iter: T) -> Netlist {
        Netlist {
            nets: iter.into_iter().collect(),
        }
    }
}

impl Extend<Net> for Netlist {
    fn extend<T: IntoIterator<Item = Net>>(&mut self, iter: T) {
        self.nets.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pin, RouteTreeBuilder};
    use grid::Cell;

    fn two_pin_net(name: &str, from: Cell, to: Cell) -> Net {
        let mut b = RouteTreeBuilder::new(from);
        let bend = Cell::new(to.x, from.y);
        let mut cur = b.root();
        if bend != from {
            cur = b.add_segment(cur, bend).unwrap();
        }
        if bend != to {
            cur = b.add_segment(cur, to).unwrap();
        }
        b.attach_pin(b.root(), 0).unwrap();
        b.attach_pin(cur, 1).unwrap();
        Net::new(
            name,
            vec![Pin::source(from, 10.0), Pin::sink(to, 1.0)],
            b.build().unwrap(),
        )
    }

    #[test]
    fn segment_refs_cover_all_segments() {
        let mut nl = Netlist::new();
        nl.push(two_pin_net("a", Cell::new(0, 0), Cell::new(3, 2)));
        nl.push(two_pin_net("b", Cell::new(1, 1), Cell::new(1, 4)));
        assert_eq!(nl.num_segments(), 3);
        let refs: Vec<_> = nl.segment_refs().collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(refs[0], SegmentRef::new(0, 0));
        assert_eq!(refs[2], SegmentRef::new(1, 0));
    }

    #[test]
    fn collects_from_iterator() {
        let nl: Netlist = vec![two_pin_net("a", Cell::new(0, 0), Cell::new(2, 2))]
            .into_iter()
            .collect();
        assert_eq!(nl.len(), 1);
        nl.validate(8, 8).unwrap();
    }
}
