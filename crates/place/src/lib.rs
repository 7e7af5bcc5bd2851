//! # prebond3d-place
//!
//! Per-die physical placement substrate.
//!
//! The paper extracts "physical information of scan flip-flops and TSVs"
//! from the 3D-Craft physical-design flow; its Algorithm 1 consumes only
//! the **distance** between a candidate wrapper cell and a TSV (`d_th`
//! threshold), and its timing model charges **wire delay** proportional to
//! that distance. This crate supplies that physical information:
//!
//! * [`grid`] — connectivity-ordered initial placement onto a row/site grid,
//! * [`anneal`] — seeded simulated-annealing refinement minimizing
//!   half-perimeter wirelength (HPWL),
//! * [`wirelength`] — HPWL evaluation,
//! * [`Placement`] — per-gate coordinates + Manhattan distance queries.
//!
//! # Example
//!
//! ```
//! use prebond3d_netlist::itc99;
//! use prebond3d_place::{place, PlaceConfig};
//!
//! let die = itc99::generate_flat("d", 200, 16, 6, 6, 5);
//! let placement = place(&die, &PlaceConfig::default(), 1);
//! let a = die.find("g0").unwrap();
//! let b = die.find("g1").unwrap();
//! let d = placement.distance(a, b);
//! assert!(d.0 >= 0.0);
//! ```

pub mod anneal;
pub mod grid;
pub mod wirelength;

use prebond3d_celllib::Distance;
use prebond3d_netlist::{GateId, Netlist};

/// A coordinate on the die, in micrometres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal position.
    pub x: f64,
    /// Vertical position.
    pub y: f64,
}

impl Point {
    /// Manhattan distance to `other` — the routing-relevant metric.
    pub fn manhattan(&self, other: &Point) -> Distance {
        Distance((self.x - other.x).abs() + (self.y - other.y).abs())
    }
}

/// Placement configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaceConfig {
    /// Site width in µm (one cell per site).
    pub site_width: f64,
    /// Row height in µm.
    pub row_height: f64,
    /// Fraction of sites occupied (rest is whitespace).
    pub utilization: f64,
    /// Annealing effort: proposed moves per cell.
    pub moves_per_cell: usize,
}

impl Default for PlaceConfig {
    /// 45 nm-ish geometry: 1.9 µm × 1.4 µm sites at 70 % utilization,
    /// 24 moves/cell of annealing.
    fn default() -> Self {
        PlaceConfig {
            site_width: 1.9,
            row_height: 1.4,
            utilization: 0.7,
            moves_per_cell: 24,
        }
    }
}

/// The result of placement: one [`Point`] per gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    points: Vec<Point>,
    width: f64,
    height: f64,
}

impl Placement {
    /// Wrap raw per-gate coordinates (used by the placers).
    pub fn new(points: Vec<Point>, width: f64, height: f64) -> Self {
        Placement {
            points,
            width,
            height,
        }
    }

    /// Location of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the placed netlist.
    pub fn location(&self, id: GateId) -> Point {
        self.points[id.index()]
    }

    /// Manhattan distance between two gates.
    pub fn distance(&self, a: GateId, b: GateId) -> Distance {
        self.location(a).manhattan(&self.location(b))
    }

    /// Die width in µm.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Die height in µm.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// Number of placed gates.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Half the die's half-perimeter — a scale reference for distance
    /// thresholds (`d_th` defaults derive from this).
    pub fn scale(&self) -> Distance {
        Distance((self.width + self.height) / 2.0)
    }

    pub(crate) fn swap(&mut self, a: GateId, b: GateId) {
        self.points.swap(a.index(), b.index());
    }
}

/// Place `netlist`: connectivity-ordered grid seed + annealing refinement.
///
/// Deterministic given `seed`.
pub fn place(netlist: &Netlist, config: &PlaceConfig, seed: u64) -> Placement {
    let mut placement = grid::initial(netlist, config);
    anneal::refine(netlist, &mut placement, config, seed);
    placement
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = Point { x: 1.0, y: 2.0 };
        let b = Point { x: 4.0, y: -2.0 };
        assert_eq!(a.manhattan(&b), Distance(7.0));
        assert_eq!(a.manhattan(&a), Distance(0.0));
    }

    #[test]
    fn placement_accessors() {
        let p = Placement::new(
            vec![Point { x: 0.0, y: 0.0 }, Point { x: 3.0, y: 4.0 }],
            10.0,
            8.0,
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.distance(GateId(0), GateId(1)), Distance(7.0));
        assert_eq!(p.scale(), Distance(9.0));
        assert!(!p.is_empty());
    }
}
