//! Figure 5-1: the summary chart, regenerated from the registered
//! lattices.

use relax_core::summary::{render_chart, summary_chart};

use crate::args::Args;

/// `relax-bench summary`: prints the chart.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Figure 5-1: Summary Chart ==\n");
    println!("{}", render_chart(&summary_chart()));
    Ok(())
}
