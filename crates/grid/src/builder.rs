//! Construction of [`Grid`]s.

use crate::{BuildGridError, Direction, Grid, Layer};

/// Builder for [`Grid`].
///
/// ```
/// use grid::{Direction, GridBuilder, Layer};
///
/// # fn main() -> Result<(), grid::BuildGridError> {
/// let grid = GridBuilder::new(16, 16)
///     .tile_size(40.0, 40.0)
///     .via_geometry(1.0, 1.0)
///     .push_layer(Layer::new("M1", Direction::Horizontal).with_rc(4.0, 1.0))
///     .push_layer(Layer::new("M2", Direction::Vertical).with_rc(2.0, 1.0))
///     .via_resistances(vec![3.0])
///     .build()?;
/// assert_eq!(grid.num_layers(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GridBuilder {
    width: u16,
    height: u16,
    tile_width: f64,
    tile_height: f64,
    via_width: f64,
    via_spacing: f64,
    layers: Vec<Layer>,
    via_resistance: Option<Vec<f64>>,
}

impl GridBuilder {
    /// Starts a builder for a `width × height` tile grid.
    pub fn new(width: u16, height: u16) -> GridBuilder {
        GridBuilder {
            width,
            height,
            tile_width: 10.0,
            tile_height: 10.0,
            via_width: 1.0,
            via_spacing: 1.0,
            layers: Vec::new(),
            via_resistance: None,
        }
    }

    /// Sets the physical tile dimensions (defaults: 10 × 10).
    #[must_use]
    pub fn tile_size(mut self, width: f64, height: f64) -> GridBuilder {
        self.tile_width = width;
        self.tile_height = height;
        self
    }

    /// Sets via width and spacing (defaults: 1, 1).
    #[must_use]
    pub fn via_geometry(mut self, width: f64, spacing: f64) -> GridBuilder {
        self.via_width = width;
        self.via_spacing = spacing;
        self
    }

    /// Appends one layer on top of the stack.
    #[must_use]
    pub fn push_layer(mut self, layer: Layer) -> GridBuilder {
        self.layers.push(layer);
        self
    }

    /// Appends `count` layers with alternating directions starting from
    /// `first`, named `M1..M{count}`, with a realistic decreasing
    /// resistance profile: layer `l` gets resistance `8 / 2^(l/2)` Ω/tile
    /// and capacitance `1 + 0.15·l` fF/tile, mirroring the industrial
    /// observation that higher layers are wider and less resistive.
    #[must_use]
    pub fn alternating_layers(mut self, count: usize, first: Direction) -> GridBuilder {
        let mut dir = first;
        for l in 0..count {
            let resistance = 8.0 / f64::powi(2.0, (l / 2) as i32);
            let capacitance = 1.0 + 0.15 * l as f64;
            let width = 1.0 + 0.5 * (l / 2) as f64;
            self.layers.push(
                Layer::new(format!("M{}", l + 1), dir)
                    .with_rc(resistance, capacitance)
                    .with_geometry(width, width),
            );
            dir = dir.flipped();
        }
        self
    }

    /// Overrides the default capacity of every layer added so far.
    #[must_use]
    pub fn uniform_capacity(mut self, cap: u32) -> GridBuilder {
        for l in &mut self.layers {
            l.default_capacity = cap;
        }
        self
    }

    /// Sets the via resistance table; entry `l` is the resistance between
    /// layers `l` and `l + 1`. When unset, every boundary defaults to a
    /// tenth of the per-tile resistance of the lower layer: a via is a
    /// few squares of metal, far shorter than a routing tile, so layer
    /// promotion pays off even for short segments while via-heavy
    /// assignments still lose measurable delay.
    #[must_use]
    pub fn via_resistances(mut self, table: Vec<f64>) -> GridBuilder {
        self.via_resistance = Some(table);
        self
    }

    /// Builds the grid.
    ///
    /// # Errors
    ///
    /// Returns [`BuildGridError`] when the description is degenerate: no
    /// routing edges, no layers, a missing direction, non-positive layer
    /// parameters, or a via-resistance table of the wrong length.
    pub fn build(self) -> Result<Grid, BuildGridError> {
        if (self.width < 2 || self.height < 1) && (self.width < 1 || self.height < 2) {
            return Err(BuildGridError::DegenerateDims {
                width: self.width,
                height: self.height,
            });
        }
        if self.layers.is_empty() {
            return Err(BuildGridError::NoLayers);
        }
        for dir in [Direction::Horizontal, Direction::Vertical] {
            if !self.layers.iter().any(|l| l.direction == dir) {
                return Err(BuildGridError::MissingDirection(dir));
            }
        }
        for (i, l) in self.layers.iter().enumerate() {
            for (value, what) in [
                (l.unit_resistance, "resistance"),
                (l.unit_capacitance, "capacitance"),
                (l.wire_width, "wire width"),
                (l.wire_spacing, "wire spacing"),
            ] {
                // `is_nan` guard folded in: NaN must be rejected too.
                if value.is_nan() || value <= 0.0 {
                    return Err(BuildGridError::InvalidLayerParameter { layer: i, what });
                }
            }
        }
        let via_resistance = match self.via_resistance {
            Some(t) => {
                if t.len() != self.layers.len() - 1 {
                    return Err(BuildGridError::ViaResistanceLength {
                        got: t.len(),
                        expected: self.layers.len() - 1,
                    });
                }
                t
            }
            None => self.layers[..self.layers.len() - 1]
                .iter()
                .map(|l| 0.1 * l.unit_resistance)
                .collect(),
        };

        let n_h_edges = (self.width as usize - 1) * self.height as usize;
        let n_v_edges = self.width as usize * (self.height as usize - 1);
        let n_cells = self.width as usize * self.height as usize;
        let mut cap = Vec::with_capacity(self.layers.len());
        let mut usage = Vec::with_capacity(self.layers.len());
        let mut via_usage = Vec::with_capacity(self.layers.len());
        for l in &self.layers {
            let n = match l.direction {
                Direction::Horizontal => n_h_edges,
                Direction::Vertical => n_v_edges,
            };
            cap.push(vec![l.default_capacity; n]);
            usage.push(vec![0u32; n]);
            via_usage.push(vec![0u32; n_cells]);
        }
        let mut grid = Grid {
            width: self.width,
            height: self.height,
            tile_width: self.tile_width,
            tile_height: self.tile_height,
            via_width: self.via_width,
            via_spacing: self.via_spacing,
            layers: self.layers,
            via_resistance,
            cap,
            usage,
            via_usage,
            via_cap: Vec::new(),
            wire_overflow: 0,
            via_overflow: 0,
        };
        // Usage starts empty, so both overflow totals start at zero.
        grid.via_cap = (0..grid.num_layers())
            .map(|l| grid.cells().map(|c| grid.eqn1_via_capacity(c, l)).collect())
            .collect();
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_grid() {
        let err = GridBuilder::new(1, 1)
            .alternating_layers(2, Direction::Horizontal)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildGridError::DegenerateDims { .. }));
    }

    #[test]
    fn rejects_empty_layer_stack() {
        let err = GridBuilder::new(4, 4).build().unwrap_err();
        assert_eq!(err, BuildGridError::NoLayers);
    }

    #[test]
    fn rejects_single_direction() {
        let err = GridBuilder::new(4, 4)
            .push_layer(Layer::new("M1", Direction::Horizontal))
            .push_layer(Layer::new("M2", Direction::Horizontal))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildGridError::MissingDirection(Direction::Vertical));
    }

    #[test]
    fn rejects_bad_via_table() {
        let err = GridBuilder::new(4, 4)
            .alternating_layers(4, Direction::Horizontal)
            .via_resistances(vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildGridError::ViaResistanceLength {
                got: 1,
                expected: 3
            }
        );
    }

    #[test]
    fn rejects_nonpositive_rc() {
        let err = GridBuilder::new(4, 4)
            .push_layer(Layer::new("M1", Direction::Horizontal).with_rc(0.0, 1.0))
            .push_layer(Layer::new("M2", Direction::Vertical))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BuildGridError::InvalidLayerParameter {
                layer: 0,
                what: "resistance"
            }
        ));
    }

    #[test]
    fn default_via_table_has_right_length() {
        let g = GridBuilder::new(4, 4)
            .alternating_layers(6, Direction::Horizontal)
            .build()
            .unwrap();
        // 6 layers -> 5 boundaries; probing the last one must not panic.
        let _ = g.via_resistance(4);
    }

    #[test]
    fn resistance_profile_decreases_with_height() {
        let g = GridBuilder::new(4, 4)
            .alternating_layers(8, Direction::Horizontal)
            .build()
            .unwrap();
        let r0 = g.layer(0).unit_resistance;
        let r7 = g.layer(7).unit_resistance;
        assert!(r7 < r0, "top layer must be less resistive: {r7} vs {r0}");
    }
}
