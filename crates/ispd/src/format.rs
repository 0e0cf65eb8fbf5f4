//! The ISPD'08 global-routing contest text format.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write as IoWrite};

use grid::{Cell, Direction, Edge2d, Grid, GridBuilder, Layer};
use net::{NetSpec, Pin};

/// A capacity adjustment line: the capacity of the edge between two
/// adjacent tiles on one layer is overridden.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CapacityAdjustment {
    /// First endpoint `(column, row, layer)`, 0-based.
    pub from: (u16, u16, usize),
    /// Second endpoint `(column, row, layer)`, 0-based.
    pub to: (u16, u16, usize),
    /// New capacity in ISPD capacity units (track widths).
    pub capacity: u32,
}

/// An ISPD'08 design: grid geometry, per-layer capacities and net pin
/// lists.
///
/// Produced by [`parse`] or by
/// [`SyntheticConfig::design`](crate::SyntheticConfig); converted to the
/// workspace's native types with [`IspdDesign::to_grid`] and
/// [`IspdDesign::net_specs`].
#[derive(Clone, PartialEq, Debug)]
pub struct IspdDesign {
    /// Tiles in x.
    pub grid_x: u16,
    /// Tiles in y.
    pub grid_y: u16,
    /// Metal layer count.
    pub num_layers: usize,
    /// Per-layer vertical capacity (ISPD units; 0 on horizontal layers).
    pub vertical_capacity: Vec<u32>,
    /// Per-layer horizontal capacity (ISPD units; 0 on vertical layers).
    pub horizontal_capacity: Vec<u32>,
    /// Per-layer minimum wire width.
    pub min_width: Vec<f64>,
    /// Per-layer minimum wire spacing.
    pub min_spacing: Vec<f64>,
    /// Per-layer via spacing.
    pub via_spacing: Vec<f64>,
    /// Physical lower-left corner of the die.
    pub lower_left: (f64, f64),
    /// Physical tile dimensions.
    pub tile_size: (f64, f64),
    /// Nets: name and pins in *tile* coordinates.
    pub nets: Vec<NetSpec>,
    /// Capacity adjustment list.
    pub adjustments: Vec<CapacityAdjustment>,
}

impl IspdDesign {
    /// Builds the native [`Grid`], converting ISPD capacity units (track
    /// widths) into wire counts via `cap / (min_width + min_spacing)` per
    /// layer, applying all capacity adjustments, and synthesizing an
    /// industrial-shape RC profile (the format itself carries no
    /// parasitics; the paper likewise substitutes "industrial settings").
    ///
    /// # Errors
    ///
    /// Returns the underlying [`grid::GridError`] if the design is
    /// degenerate or a capacity adjustment is unusable.
    pub fn to_grid(&self) -> Result<Grid, grid::GridError> {
        let mut builder = GridBuilder::new(self.grid_x, self.grid_y)
            .tile_size(self.tile_size.0, self.tile_size.1)
            .via_geometry(1.0, 1.0);
        for l in 0..self.num_layers {
            let horizontal = self.horizontal_capacity[l] > 0;
            let dir = if horizontal {
                Direction::Horizontal
            } else {
                Direction::Vertical
            };
            let pitch = self.min_width[l] + self.min_spacing[l];
            let raw = if horizontal {
                self.horizontal_capacity[l]
            } else {
                self.vertical_capacity[l]
            };
            let wires = if pitch > 0.0 {
                (raw as f64 / pitch).floor() as u32
            } else {
                raw
            };
            // Same qualitative RC shape as GridBuilder::alternating_layers.
            let resistance = 8.0 / f64::powi(2.0, (l / 2) as i32);
            let capacitance = 1.0 + 0.15 * l as f64;
            builder = builder.push_layer(
                Layer::new(format!("M{}", l + 1), dir)
                    .with_rc(resistance, capacitance)
                    .with_geometry(
                        self.min_width[l].max(f64::MIN_POSITIVE),
                        self.min_spacing[l].max(f64::MIN_POSITIVE),
                    )
                    .with_capacity(wires),
            );
        }
        let mut grid = builder.build()?;
        for adj in &self.adjustments {
            let (x1, y1, l1) = adj.from;
            let (x2, y2, l2) = adj.to;
            if l1 != l2 || l1 >= self.num_layers {
                return Err(grid::GridError::InvalidAdjustment {
                    detail: format!("adjustment spans layers {l1}/{l2}, which is unsupported"),
                });
            }
            let e = Edge2d::between(Cell::new(x1, y1), Cell::new(x2, y2)).ok_or_else(|| {
                grid::GridError::InvalidAdjustment {
                    detail: format!(
                        "adjustment between non-adjacent tiles \
                         ({x1},{y1}) and ({x2},{y2})"
                    ),
                }
            })?;
            if grid.layer(l1).direction != e.dir {
                return Err(grid::GridError::InvalidAdjustment {
                    detail: format!("adjustment on layer {l1} direction mismatch at {e}"),
                });
            }
            let pitch = self.min_width[l1] + self.min_spacing[l1];
            let wires = if pitch > 0.0 {
                (adj.capacity as f64 / pitch).floor() as u32
            } else {
                adj.capacity
            };
            grid.set_edge_capacity(l1, e, wires);
        }
        Ok(grid)
    }

    /// The net specs (pins already in tile coordinates).
    pub fn net_specs(&self) -> &[NetSpec] {
        &self.nets
    }
}

/// What a [`ParseError`] found wrong at its position.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The file ended while more tokens were required.
    UnexpectedEof,
    /// A fixed keyword of the format was expected.
    ExpectedKeyword(&'static str),
    /// A floating-point number was expected.
    ExpectedNumber,
    /// A non-negative integer was expected.
    ExpectedInteger,
    /// A net declared zero pins.
    EmptyNet,
    /// The tile dimensions were not positive.
    NonPositiveTileSize,
    /// An integer does not fit the type the workspace stores it in
    /// (grid sizes and tile coordinates are `u16`); names the field.
    OutOfRange(&'static str),
    /// The underlying reader failed.
    Io,
}

impl ParseErrorKind {
    fn describe(&self) -> String {
        match self {
            ParseErrorKind::UnexpectedEof => "unexpected end of file".to_string(),
            ParseErrorKind::ExpectedKeyword(w) => format!("expected `{w}`"),
            ParseErrorKind::ExpectedNumber => "expected number".to_string(),
            ParseErrorKind::ExpectedInteger => "expected integer".to_string(),
            ParseErrorKind::EmptyNet => "net has no pins".to_string(),
            ParseErrorKind::NonPositiveTileSize => "non-positive tile size".to_string(),
            ParseErrorKind::OutOfRange(field) => {
                format!("{field} out of range (at most {})", u16::MAX)
            }
            ParseErrorKind::Io => "read failure".to_string(),
        }
    }
}

/// Error produced by [`parse`], pinned to the offending position.
///
/// `line` is 1-based; `token` is the text that triggered the failure
/// (empty at end of file). CLI error messages carry both so a failure
/// on a multi-megabyte benchmark file is actionable.
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    /// 1-based line number of the offending token (the last line of the
    /// file when the input ended early).
    pub line: usize,
    /// The offending token text, `""` at end of file.
    pub token: String,
    /// What was wrong with it.
    pub kind: ParseErrorKind,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid ISPD'08 file: line {}: {}",
            self.line,
            self.kind.describe()
        )?;
        if !self.token.is_empty() {
            write!(f, ", got `{}`", self.token)?;
        }
        Ok(())
    }
}

impl Error for ParseError {}

/// Former name of [`ParseError`], kept for source compatibility.
pub type ParseIspdError = ParseError;

/// Incremental whitespace tokenizer over a [`BufRead`].
///
/// Holds one input line at a time, in a buffer reused from line to line,
/// and hands out tokens as slices of it, so parsing a multi-megabyte
/// benchmark allocates nothing per token. Error positions match the old
/// resident tokenizer exactly: the offending token with its 1-based
/// line, or the file's last line (empty token) when the input ends
/// early.
struct Tokens<R> {
    reader: R,
    /// The current line; `at` is the byte offset of its unscanned rest.
    line: String,
    at: usize,
    /// 1-based number of the line in `line` (0 before any read); once the
    /// reader is drained, the total line count of the input.
    line_no: usize,
    /// Byte span within `line` of the most recently consumed token, and
    /// its line, for error positions. The span stays valid until the
    /// next read: errors are raised right after the token is consumed.
    last: (usize, usize),
    last_line: usize,
    /// Set once the reader returns end of input.
    eof: bool,
}

impl<R: BufRead> Tokens<R> {
    fn new(reader: R) -> Tokens<R> {
        Tokens {
            reader,
            line: String::new(),
            at: 0,
            line_no: 0,
            last: (0, 0),
            last_line: 0,
            eof: false,
        }
    }

    /// Reads lines until one holds an unconsumed token, leaving `at` on
    /// its first byte; `false` at EOF.
    ///
    /// # Errors
    ///
    /// Wraps reader failures as [`ParseErrorKind::Io`] at the line being
    /// read.
    fn fill(&mut self) -> Result<bool, ParseError> {
        loop {
            let rest = &self.line[self.at..];
            self.at += rest.len() - rest.trim_start().len();
            if self.at < self.line.len() {
                return Ok(true);
            }
            if self.eof {
                return Ok(false);
            }
            self.line.clear();
            self.at = 0;
            let n = self
                .reader
                .read_line(&mut self.line)
                .map_err(|e| ParseError {
                    line: self.line_no + 1,
                    token: e.to_string(),
                    kind: ParseErrorKind::Io,
                })?;
            if n == 0 {
                self.eof = true;
                return Ok(false);
            }
            self.line_no += 1;
        }
    }

    fn err_here(&self, kind: ParseErrorKind) -> ParseError {
        // The failing token is the one just consumed.
        ParseError {
            line: self.current_line(),
            token: self
                .line
                .get(self.last.0..self.last.1)
                .unwrap_or_default()
                .to_string(),
            kind,
        }
    }

    /// Line of the most recently consumed token.
    fn current_line(&self) -> usize {
        if self.last_line == 0 {
            self.line_no.max(1)
        } else {
            self.last_line
        }
    }

    fn next(&mut self) -> Result<&str, ParseError> {
        if self.fill()? {
            let rest = &self.line[self.at..];
            let len = rest.find(char::is_whitespace).unwrap_or(rest.len());
            self.last = (self.at, self.at + len);
            self.at += len;
            self.last_line = self.line_no;
            Ok(&self.line[self.last.0..self.last.1])
        } else {
            Err(ParseError {
                line: self.line_no.max(1),
                token: String::new(),
                kind: ParseErrorKind::UnexpectedEof,
            })
        }
    }

    /// Whether any token remains (reading ahead as needed).
    ///
    /// # Errors
    ///
    /// Propagates reader failures like [`Tokens::fill`].
    fn has_more(&mut self) -> Result<bool, ParseError> {
        self.fill()
    }

    fn next_f64(&mut self) -> Result<f64, ParseError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| self.err_here(ParseErrorKind::ExpectedNumber))
    }

    fn next_u32(&mut self) -> Result<u32, ParseError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| self.err_here(ParseErrorKind::ExpectedInteger))
    }

    /// An integer that must fit a `u16` tile count or coordinate;
    /// `field` names it in the error.
    fn next_u16(&mut self, field: &'static str) -> Result<u16, ParseError> {
        let v = self.next_u32()?;
        u16::try_from(v).map_err(|_| self.err_here(ParseErrorKind::OutOfRange(field)))
    }

    fn expect(&mut self, word: &'static str) -> Result<(), ParseError> {
        let t = self.next()?;
        if t.eq_ignore_ascii_case(word) {
            Ok(())
        } else {
            Err(self.err_here(ParseErrorKind::ExpectedKeyword(word)))
        }
    }
}

/// Parses an ISPD'08 benchmark file.
///
/// Pins are converted from physical to tile coordinates using the file's
/// origin and tile size, and clamped into the grid. Pin layers in the
/// file are 1-based; they are stored 0-based.
///
/// # Errors
///
/// Returns [`ParseError`] on any structural deviation from the format —
/// carrying the 1-based line number and the offending token — and wraps
/// I/O errors in the same type.
pub fn parse(reader: impl BufRead) -> Result<IspdDesign, ParseError> {
    let mut nets = Vec::new();
    let mut design = parse_with(reader, |spec| nets.push(spec))?;
    design.nets = nets;
    Ok(design)
}

/// Streaming variant of [`parse`]: each net is handed to `on_net` the
/// moment its pins are read, and the returned [`IspdDesign`] carries an
/// *empty* `nets` list — only the header geometry and the adjustment
/// list are resident. The tokenizer holds one input line at a time, so
/// peak memory is the caller's, not the parser's: a million-segment
/// design streams straight into whatever arena or router the sink
/// feeds, with no intermediate `Vec<NetSpec>`.
///
/// # Errors
///
/// Identical to [`parse`]: a [`ParseError`] pinned to the offending
/// line and token.
pub fn parse_with(
    reader: impl BufRead,
    mut on_net: impl FnMut(NetSpec),
) -> Result<IspdDesign, ParseError> {
    let mut t = Tokens::new(reader);

    t.expect("grid")?;
    let grid_x = t.next_u16("grid x")?;
    let grid_y = t.next_u16("grid y")?;
    let num_layers = t.next_u32()? as usize;

    t.expect("vertical")?;
    t.expect("capacity")?;
    let vertical_capacity: Vec<u32> = (0..num_layers)
        .map(|_| t.next_u32())
        .collect::<Result<_, _>>()?;
    t.expect("horizontal")?;
    t.expect("capacity")?;
    let horizontal_capacity: Vec<u32> = (0..num_layers)
        .map(|_| t.next_u32())
        .collect::<Result<_, _>>()?;
    t.expect("minimum")?;
    t.expect("width")?;
    let min_width: Vec<f64> = (0..num_layers)
        .map(|_| t.next_f64())
        .collect::<Result<_, _>>()?;
    t.expect("minimum")?;
    t.expect("spacing")?;
    let min_spacing: Vec<f64> = (0..num_layers)
        .map(|_| t.next_f64())
        .collect::<Result<_, _>>()?;
    t.expect("via")?;
    t.expect("spacing")?;
    let via_spacing: Vec<f64> = (0..num_layers)
        .map(|_| t.next_f64())
        .collect::<Result<_, _>>()?;
    let llx = t.next_f64()?;
    let lly = t.next_f64()?;
    let tile_w = t.next_f64()?;
    let tile_h = t.next_f64()?;
    if tile_w <= 0.0 || tile_h <= 0.0 {
        return Err(t.err_here(ParseErrorKind::NonPositiveTileSize));
    }

    t.expect("num")?;
    t.expect("net")?;
    let num_nets = t.next_u32()? as usize;

    let to_tile = |v: f64, origin: f64, size: f64, max: u16| -> u16 {
        let idx = ((v - origin) / size).floor();
        // cast: the clamp above bounds the index to the u16 tile grid.
        idx.clamp(0.0, max.saturating_sub(1) as f64) as u16
    };

    for _ in 0..num_nets {
        let name = t.next()?.to_string();
        let name_line = t.current_line();
        let _id = t.next_u32()?;
        let num_pins = t.next_u32()? as usize;
        let _min_width = t.next_f64()?;
        // No pre-allocation from the declared count: a corrupt header
        // must run into the end of the input, not into the allocator.
        let mut pins = Vec::new();
        for p in 0..num_pins {
            let x = t.next_f64()?;
            let y = t.next_f64()?;
            let layer = t.next_u32()? as usize;
            let cell = Cell::new(
                to_tile(x, llx, tile_w, grid_x),
                to_tile(y, lly, tile_h, grid_y),
            );
            let pin = if p == 0 {
                Pin::source(cell, 0.0)
            } else {
                Pin::sink(cell, 1.0)
            };
            pins.push(pin.on_layer(layer.saturating_sub(1)));
        }
        if pins.is_empty() {
            return Err(ParseError {
                line: name_line,
                token: name.clone(),
                kind: ParseErrorKind::EmptyNet,
            });
        }
        on_net(NetSpec::new(name, pins));
    }

    // Optional adjustment section.
    let mut adjustments = Vec::new();
    if t.has_more()? {
        let count = t.next_u32()? as usize;
        for _ in 0..count {
            let x1 = t.next_u16("adjustment x")?;
            let y1 = t.next_u16("adjustment y")?;
            let l1 = t.next_u32()? as usize;
            let x2 = t.next_u16("adjustment x")?;
            let y2 = t.next_u16("adjustment y")?;
            let l2 = t.next_u32()? as usize;
            let capacity = t.next_u32()?;
            adjustments.push(CapacityAdjustment {
                from: (x1, y1, l1.saturating_sub(1)),
                to: (x2, y2, l2.saturating_sub(1)),
                capacity,
            });
        }
    }

    Ok(IspdDesign {
        grid_x,
        grid_y,
        num_layers,
        vertical_capacity,
        horizontal_capacity,
        min_width,
        min_spacing,
        via_spacing,
        lower_left: (llx, lly),
        tile_size: (tile_w, tile_h),
        nets: Vec::new(),
        adjustments,
    })
}

/// Writes a design in the ISPD'08 format. Pins are emitted at their tile
/// centers; the inverse of [`parse`]'s coordinate conversion.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write(design: &IspdDesign, mut w: impl IoWrite) -> std::io::Result<()> {
    writeln!(
        w,
        "grid {} {} {}",
        design.grid_x, design.grid_y, design.num_layers
    )?;
    let join = |v: &[u32]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let joinf = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    writeln!(w, "vertical capacity {}", join(&design.vertical_capacity))?;
    writeln!(
        w,
        "horizontal capacity {}",
        join(&design.horizontal_capacity)
    )?;
    writeln!(w, "minimum width {}", joinf(&design.min_width))?;
    writeln!(w, "minimum spacing {}", joinf(&design.min_spacing))?;
    writeln!(w, "via spacing {}", joinf(&design.via_spacing))?;
    writeln!(
        w,
        "{} {} {} {}",
        design.lower_left.0, design.lower_left.1, design.tile_size.0, design.tile_size.1
    )?;
    writeln!(w, "num net {}", design.nets.len())?;
    for (i, n) in design.nets.iter().enumerate() {
        writeln!(w, "{} {} {} 1", n.name, i, n.pins.len())?;
        for p in &n.pins {
            let x = design.lower_left.0 + (p.cell.x as f64 + 0.5) * design.tile_size.0;
            let y = design.lower_left.1 + (p.cell.y as f64 + 0.5) * design.tile_size.1;
            writeln!(w, "{x} {y} {}", p.layer + 1)?;
        }
    }
    writeln!(w, "{}", design.adjustments.len())?;
    for a in &design.adjustments {
        writeln!(
            w,
            "{} {} {} {} {} {} {}",
            a.from.0,
            a.from.1,
            a.from.2 + 1,
            a.to.0,
            a.to.1,
            a.to.2 + 1,
            a.capacity
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const SAMPLE: &str = "\
grid 4 4 2
vertical capacity 0 20
horizontal capacity 20 0
minimum width 1 1
minimum spacing 1 1
via spacing 1 1
0 0 10 10
num net 2
netA 0 2 1
5 5 1
35 25 1
netB 1 3 1
15 15 1
25 35 1
5 35 2
1
0 0 1 1 0 1 10
";

    #[test]
    fn parses_the_sample() {
        let d = parse(BufReader::new(SAMPLE.as_bytes())).unwrap();
        assert_eq!(d.grid_x, 4);
        assert_eq!(d.num_layers, 2);
        assert_eq!(d.nets.len(), 2);
        assert_eq!(d.nets[0].pins[1].cell, Cell::new(3, 2));
        // Pin layer converted to 0-based.
        assert_eq!(d.nets[1].pins[2].layer, 1);
        assert_eq!(d.adjustments.len(), 1);
        assert_eq!(d.adjustments[0].capacity, 10);
    }

    #[test]
    fn builds_native_grid_with_converted_capacity() {
        let d = parse(BufReader::new(SAMPLE.as_bytes())).unwrap();
        let g = d.to_grid().unwrap();
        assert_eq!(g.num_layers(), 2);
        assert_eq!(g.layer(0).direction, Direction::Horizontal);
        assert_eq!(g.layer(1).direction, Direction::Vertical);
        // 20 units / (1 + 1) pitch = 10 wires.
        assert_eq!(g.edge_capacity(0, Edge2d::horizontal(2, 2)), 10);
        // Adjustment: edge (0,0)-(1,0) layer 0 -> 10 / 2 = 5 wires.
        assert_eq!(g.edge_capacity(0, Edge2d::horizontal(0, 0)), 5);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let d = parse(BufReader::new(SAMPLE.as_bytes())).unwrap();
        let mut buf = Vec::new();
        write(&d, &mut buf).unwrap();
        let d2 = parse(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(d.grid_x, d2.grid_x);
        assert_eq!(d.nets.len(), d2.nets.len());
        for (a, b) in d.nets.iter().zip(&d2.nets) {
            assert_eq!(a.name, b.name);
            let ac: Vec<_> = a.pins.iter().map(|p| p.cell).collect();
            let bc: Vec<_> = b.pins.iter().map(|p| p.cell).collect();
            assert_eq!(ac, bc);
        }
        assert_eq!(d.adjustments, d2.adjustments);
    }

    #[test]
    fn streaming_sink_matches_resident_parse() {
        let resident = parse(BufReader::new(SAMPLE.as_bytes())).unwrap();
        let mut streamed = Vec::new();
        let shell = parse_with(BufReader::new(SAMPLE.as_bytes()), |n| streamed.push(n)).unwrap();
        assert!(shell.nets.is_empty(), "shell must not retain nets");
        assert_eq!(streamed.len(), resident.nets.len());
        for (a, b) in streamed.iter().zip(&resident.nets) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.pins, b.pins);
        }
        assert_eq!(shell.grid_x, resident.grid_x);
        assert_eq!(shell.adjustments, resident.adjustments);
    }

    /// Both parse paths report the same literal `(line, token, kind)`,
    /// among others for a bad token that ends its line with more lines
    /// after it, a bad token that starts a line after blank lines, the
    /// input ending inside a net, and a net declaring no pins.
    #[test]
    fn streaming_error_positions_match_resident_parse() {
        use ParseErrorKind::*;
        let cases = [
            (
                "grid 4 4 2\nvertical capacity 0".to_string(),
                (2, "", UnexpectedEof),
            ),
            (
                SAMPLE.replace("num net 2", "num net banana"),
                (8, "banana", ExpectedInteger),
            ),
            (
                SAMPLE.replace("35 25 1", "35 x 1"),
                (11, "x", ExpectedNumber),
            ),
            (
                SAMPLE.replace("35 25 1", "35 25 x"),
                (11, "x", ExpectedInteger),
            ),
            (
                SAMPLE.replace("\n15 15 1", "\n\n\t\nq15 15 1"),
                (15, "q15", ExpectedNumber),
            ),
            (
                SAMPLE[..SAMPLE.find("25 35 1").unwrap()].to_string(),
                (13, "", UnexpectedEof),
            ),
            (
                SAMPLE.replace("netB 1 3 1\n15 15 1\n25 35 1\n5 35 2\n", "netB 1 0 1\n"),
                (12, "netB", EmptyNet),
            ),
        ];
        for (broken, (line, token, kind)) in cases {
            let expected = ParseError {
                line,
                token: token.to_string(),
                kind,
            };
            let resident = parse(BufReader::new(broken.as_bytes())).unwrap_err();
            assert_eq!(resident, expected, "resident parse of {broken:?}");
            let streamed = parse_with(BufReader::new(broken.as_bytes()), |_| {}).unwrap_err();
            assert_eq!(streamed, expected, "streaming parse of {broken:?}");
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let broken = "grid 4 4 2\nvertical capacity 0";
        let e = parse(BufReader::new(broken.as_bytes())).unwrap_err();
        assert!(e.to_string().contains("end of file"), "{e}");
    }

    #[test]
    fn huge_pin_count_reports_end_of_input() {
        // The last net claims four billion pins; the file holds a few.
        let broken = SAMPLE.replace("netB 1 3 1", "netB 1 4000000000 1");
        let e = parse(BufReader::new(broken.as_bytes())).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnexpectedEof, "{e}");
    }

    #[test]
    fn grid_sizes_past_u16_are_rejected() {
        for (grid, field) in [("grid 65560 4 2", "grid x"), ("grid 4 65536 2", "grid y")] {
            let broken = SAMPLE.replace("grid 4 4 2", grid);
            let e = parse(BufReader::new(broken.as_bytes())).unwrap_err();
            assert_eq!(e.kind, ParseErrorKind::OutOfRange(field), "{e}");
            assert_eq!(e.line, 1);
            assert!(e.to_string().contains(field), "{e}");
        }
        // The largest u16 still parses.
        let edge = SAMPLE.replace("grid 4 4 2", "grid 65535 4 2");
        assert_eq!(
            parse(BufReader::new(edge.as_bytes())).unwrap().grid_x,
            u16::MAX
        );
    }

    #[test]
    fn adjustment_coordinates_past_u16_are_rejected() {
        for (adj, field) in [
            ("70000 0 1 1 0 1 10", "adjustment x"),
            ("0 0 1 1 65536 1 10", "adjustment y"),
        ] {
            let broken = SAMPLE.replace("0 0 1 1 0 1 10", adj);
            let e = parse(BufReader::new(broken.as_bytes())).unwrap_err();
            assert_eq!(e.kind, ParseErrorKind::OutOfRange(field), "{e}");
            assert_eq!(e.line, 17);
        }
    }

    #[test]
    fn garbage_token_is_rejected() {
        let broken = SAMPLE.replace("num net 2", "num net banana");
        let e = parse(BufReader::new(broken.as_bytes())).unwrap_err();
        assert!(e.to_string().contains("banana"), "{e}");
    }

    mod roundtrip_properties {
        use super::*;
        use crate::SyntheticConfig;

        /// Any generated design survives write→parse with identical
        /// structure and an equivalent native grid. Deterministic seed
        /// sweep; the off-by-default `proptest` feature widens it.
        #[test]
        fn random_designs_roundtrip() {
            let cases = if cfg!(feature = "proptest") { 128 } else { 16 };
            let mut picker = prng::Rng::seed_from_u64(0x15bd);
            for _ in 0..cases {
                check_roundtrip(picker.range_u64(0, 9_999));
            }
        }

        fn check_roundtrip(seed: u64) {
            let mut config = SyntheticConfig::small(seed);
            config.num_nets = 40;
            let design = config.design().expect("valid config");
            let mut buf = Vec::new();
            write(&design, &mut buf).expect("in-memory write");
            let parsed = parse(BufReader::new(buf.as_slice())).expect("parse back");
            assert_eq!(design.grid_x, parsed.grid_x);
            assert_eq!(design.grid_y, parsed.grid_y);
            assert_eq!(design.num_layers, parsed.num_layers);
            assert_eq!(design.nets.len(), parsed.nets.len());
            for (a, b) in design.nets.iter().zip(&parsed.nets) {
                assert_eq!(&a.name, &b.name);
                assert_eq!(a.pins.len(), b.pins.len());
                for (pa, pb) in a.pins.iter().zip(&b.pins) {
                    assert_eq!(pa.cell, pb.cell);
                    assert_eq!(pa.layer, pb.layer);
                }
            }
            let ga = design.to_grid().expect("grid a");
            let gb = parsed.to_grid().expect("grid b");
            assert_eq!(ga, gb);
        }
    }

    #[test]
    fn out_of_range_pins_are_clamped() {
        let shifted = SAMPLE.replace("35 25 1", "9999 -50 1");
        let d = parse(BufReader::new(shifted.as_bytes())).unwrap();
        assert_eq!(d.nets[0].pins[1].cell, Cell::new(3, 0));
    }
}
