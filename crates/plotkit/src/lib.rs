//! Report toolkit for the figure/table generators: CSV files, text
//! tables, and dependency-free SVG line plots.
//!
//! Every experiment binary in `crates/bench` regenerates one of the
//! paper's figures; this crate turns their numbers into artifacts under
//! `results/` without pulling a plotting dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod svg;
pub mod table;

pub use csv::Csv;
pub use svg::{Series, SvgPlot};
pub use table::Table;
