//! Lattices of automata and relaxation maps (§2.2).
//!
//! A *lattice of automata* is a family with shared states/operations whose
//! languages form a lattice under **reverse inclusion** (smallest language
//! at the top). A *relaxation lattice* is such a family indexed by
//! constraint sets through a lattice homomorphism `φ : 2^C → A`; the
//! stronger the constraint set, the smaller the accepted language.
//!
//! [`RelaxationMap`] is the engine-level interface to `φ`; the checks in
//! this module verify (up to a history-length bound over a finite
//! alphabet) that a candidate map really has the lattice properties the
//! paper requires:
//!
//! * **monotonicity** — `c ⊆ d ⇒ L(φ(d)) ⊆ L(φ(c))`;
//! * **join preservation** — `L(φ(c ∨ d)) = L(φ(c)) ∩ L(φ(d))` (joins of
//!   constraint sets map to meets of languages, i.e. joins under reverse
//!   inclusion);
//! * **meet coverage** — `L(φ(c ∧ d)) ⊇ L(φ(c)) ∪ L(φ(d))`.
//!
//! `φ` may be defined on a *sublattice* only (§3.4's account never drops
//! `A2`; §4.2's semiqueue map is defined on nonempty sets): the checks
//! quantify over [`RelaxationMap::domain`] and skip pairs whose meet/join
//! falls outside it.

use crate::automaton::{IntersectionAutomaton, ObjectAutomaton};
use crate::constraint::{ConstraintSet, ConstraintUniverse};
use crate::history::History;
use crate::language::{equal_upto, included_upto, LanguageDifference};

/// A lattice homomorphism `φ` from constraint sets to automata.
pub trait RelaxationMap {
    /// The automata in the family (shared operation alphabet).
    type A: ObjectAutomaton;

    /// The constraint universe `C`.
    fn universe(&self) -> &ConstraintUniverse;

    /// The sublattice of `2^C` on which `φ` is defined. The default is all
    /// of `2^C`.
    fn domain(&self) -> Vec<ConstraintSet> {
        self.universe().subsets().collect()
    }

    /// `φ(c)`: the automaton for a constraint set, or `None` outside the
    /// domain.
    fn automaton(&self, constraints: ConstraintSet) -> Option<Self::A>;

    /// The automaton at the top of the lattice — the *preferred behavior*.
    /// The default takes `φ` of the strongest domain element.
    fn preferred(&self) -> Option<Self::A> {
        let mut best: Option<ConstraintSet> = None;
        for c in self.domain() {
            best = Some(match best {
                None => c,
                Some(b) if c.is_stronger_than(&b) => c,
                Some(b) => b,
            });
        }
        best.and_then(|c| self.automaton(c))
    }
}

/// One violation found while checking a relaxation map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatticeViolation<Op> {
    /// `c ⊆ d` but some history accepted by `φ(d)` is rejected by `φ(c)`.
    NotMonotone {
        /// The weaker constraint set.
        weaker: ConstraintSet,
        /// The stronger constraint set.
        stronger: ConstraintSet,
        /// History accepted under `stronger` but not under `weaker`.
        witness: History<Op>,
    },
    /// `L(φ(c ∨ d)) ≠ L(φ(c)) ∩ L(φ(d))` at the witness history.
    JoinNotPreserved {
        /// First operand.
        left: ConstraintSet,
        /// Second operand.
        right: ConstraintSet,
        /// A history on which the two sides disagree.
        witness: History<Op>,
    },
    /// `L(φ(c ∧ d)) ⊉ L(φ(c)) ∪ L(φ(d))` at the witness history.
    MeetNotCovering {
        /// First operand.
        left: ConstraintSet,
        /// Second operand.
        right: ConstraintSet,
        /// A history accepted by an operand's automaton but rejected by
        /// the meet's automaton.
        witness: History<Op>,
    },
    /// `φ` returned `None` on an element it declared in its domain.
    UndefinedOnDomain(ConstraintSet),
}

/// The outcome of checking a relaxation map, listing all violations found
/// within the bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatticeCheck<Op> {
    /// All violations found (empty means the family passed the bounded
    /// check).
    pub violations: Vec<LatticeViolation<Op>>,
    /// The history-length bound used.
    pub max_len: usize,
}

impl<Op> LatticeCheck<Op> {
    /// True if no violations were found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks that `map` is a relaxation lattice up to histories of length
/// `max_len` over `alphabet`: monotone, join-preserving, and
/// meet-covering on its domain (see module docs).
///
/// Every law is checked by the bounded walk (see [`crate::multiwalk`])
/// without materializing any language: monotonicity and meet coverage are
/// inclusion walks, and join preservation compares `φ(c ∨ d)` against the
/// synchronized [`IntersectionAutomaton`] of `φ(c)` and `φ(d)`, whose
/// language is `L(φ(c)) ∩ L(φ(d))` exactly.
pub fn check_reverse_inclusion_lattice<M>(
    map: &M,
    alphabet: &[<M::A as ObjectAutomaton>::Op],
    max_len: usize,
) -> LatticeCheck<<M::A as ObjectAutomaton>::Op>
where
    M: RelaxationMap,
{
    let mut violations = Vec::new();
    let domain = map.domain();

    // Instantiate every domain element's automaton once.
    let mut autos: Vec<(ConstraintSet, M::A)> = Vec::new();
    for c in &domain {
        match map.automaton(*c) {
            Some(a) => autos.push((*c, a)),
            None => violations.push(LatticeViolation::UndefinedOnDomain(*c)),
        }
    }

    let auto_of = |c: &ConstraintSet| autos.iter().find(|(d, _)| d == c).map(|(_, a)| a);

    // Monotonicity over comparable pairs.
    for (c, ac) in &autos {
        for (d, ad) in &autos {
            if c.is_subset_of(d) && c != d {
                // d stronger than c: L(φ(d)) ⊆ L(φ(c)).
                if let Err(ce) = included_upto(ad, ac, alphabet, max_len) {
                    violations.push(LatticeViolation::NotMonotone {
                        weaker: *c,
                        stronger: *d,
                        witness: ce.history,
                    });
                }
            }
        }
    }

    // Join preservation and meet coverage over pairs whose join/meet land
    // in the domain.
    for (i, (c, ac)) in autos.iter().enumerate() {
        for (d, ad) in autos.iter().skip(i + 1) {
            let join = c.join(d);
            if let Some(aj) = auto_of(&join) {
                // L(φ(c ∨ d)) must equal L(φ(c)) ∩ L(φ(d)).
                let inter = IntersectionAutomaton::new(ac, ad);
                if let Err(diff) = equal_upto(aj, &inter, alphabet, max_len) {
                    let witness = match diff {
                        LanguageDifference::LeftNotInRight(h)
                        | LanguageDifference::RightNotInLeft(h) => h,
                    };
                    violations.push(LatticeViolation::JoinNotPreserved {
                        left: *c,
                        right: *d,
                        witness,
                    });
                }
            }
            let meet = c.meet(d);
            if let Some(am) = auto_of(&meet) {
                // L(φ(c ∧ d)) ⊇ L(φ(c)) ∪ L(φ(d)): check each operand.
                let violation = included_upto(ac, am, alphabet, max_len)
                    .err()
                    .or_else(|| included_upto(ad, am, alphabet, max_len).err());
                if let Some(ce) = violation {
                    violations.push(LatticeViolation::MeetNotCovering {
                        left: *c,
                        right: *d,
                        witness: ce.history,
                    });
                }
            }
        }
    }

    LatticeCheck {
        violations,
        max_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ConstraintUniverse;

    /// A toy family whose languages compose per-constraint, making `φ` a
    /// genuine lattice homomorphism: constraint `B_i` (when satisfied)
    /// forbids executing operation `i` twice in a row. Then
    /// `L(φ(c)) = ⋂_{B_i ∈ c} L_i`, so joins of constraint sets map
    /// exactly to intersections of languages.
    #[derive(Debug, Clone)]
    struct NoRepeat {
        forbidden: ConstraintSet, // constraint i forbids op i repeating
    }

    impl ObjectAutomaton for NoRepeat {
        type State = Option<u8>; // last operation
        type Op = u8;
        fn initial_state(&self) -> Option<u8> {
            None
        }
        fn step(&self, s: &Option<u8>, op: &u8) -> Vec<Option<u8>> {
            let repeats = *s == Some(*op);
            let guarded = self
                .forbidden
                .contains(crate::constraint::ConstraintId(*op as usize));
            if repeats && guarded {
                vec![]
            } else {
                vec![Some(*op)]
            }
        }
    }

    struct NoRepeatFamily {
        universe: ConstraintUniverse,
    }

    impl RelaxationMap for NoRepeatFamily {
        type A = NoRepeat;
        fn universe(&self) -> &ConstraintUniverse {
            &self.universe
        }
        fn automaton(&self, c: ConstraintSet) -> Option<NoRepeat> {
            Some(NoRepeat { forbidden: c })
        }
    }

    #[test]
    fn no_repeat_family_is_a_relaxation_lattice() {
        let fam = NoRepeatFamily {
            universe: ConstraintUniverse::new(["B1", "B2"]),
        };
        let check = check_reverse_inclusion_lattice(&fam, &[0u8, 1u8], 5);
        assert!(check.is_ok(), "violations: {:?}", check.violations);
    }

    #[test]
    fn preferred_is_strongest() {
        let fam = NoRepeatFamily {
            universe: ConstraintUniverse::new(["B1", "B2"]),
        };
        let preferred = fam.preferred().unwrap();
        assert_eq!(preferred.forbidden.len(), 2);
    }

    /// Counter bounded by `2 + (number of relaxed constraints)`: monotone
    /// (used by the chain-shaped sublattice and broken-family tests below).
    #[derive(Debug, Clone)]
    struct BoundedCounter {
        bound: u32,
    }

    impl ObjectAutomaton for BoundedCounter {
        type State = u32;
        type Op = u8; // 0 = inc, 1 = dec
        fn initial_state(&self) -> u32 {
            0
        }
        fn step(&self, s: &u32, op: &u8) -> Vec<u32> {
            match op {
                0 if *s < self.bound => vec![s + 1],
                1 if *s > 0 => vec![s - 1],
                _ => vec![],
            }
        }
    }

    /// A broken family: relaxing constraints *shrinks* the language
    /// (violates monotonicity).
    struct BrokenFamily {
        universe: ConstraintUniverse,
    }

    impl RelaxationMap for BrokenFamily {
        type A = BoundedCounter;
        fn universe(&self) -> &ConstraintUniverse {
            &self.universe
        }
        fn automaton(&self, c: ConstraintSet) -> Option<BoundedCounter> {
            // Backwards: more constraints → larger bound.
            Some(BoundedCounter {
                bound: 1 + c.len() as u32,
            })
        }
    }

    #[test]
    fn broken_family_detected() {
        let fam = BrokenFamily {
            universe: ConstraintUniverse::new(["B1"]),
        };
        let check = check_reverse_inclusion_lattice(&fam, &[0u8, 1u8], 4);
        assert!(!check.is_ok());
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, LatticeViolation::NotMonotone { .. })));
    }

    /// Sublattice domains are respected: φ undefined outside is fine.
    struct SubFamily {
        universe: ConstraintUniverse,
    }

    impl RelaxationMap for SubFamily {
        type A = BoundedCounter;
        fn universe(&self) -> &ConstraintUniverse {
            &self.universe
        }
        fn domain(&self) -> Vec<ConstraintSet> {
            // Only sets containing B2 (like the account's A2).
            let b2 = self.universe.id("B2").unwrap();
            self.universe.subsets().filter(|s| s.contains(b2)).collect()
        }
        fn automaton(&self, c: ConstraintSet) -> Option<BoundedCounter> {
            let b2 = self.universe.id("B2").unwrap();
            if !c.contains(b2) {
                return None;
            }
            let relaxed = self.universe.len() - c.len();
            Some(BoundedCounter {
                bound: 2 + relaxed as u32,
            })
        }
    }

    #[test]
    fn sublattice_domain_checks_pass() {
        let fam = SubFamily {
            universe: ConstraintUniverse::new(["B1", "B2"]),
        };
        assert_eq!(fam.domain().len(), 2);
        let check = check_reverse_inclusion_lattice(&fam, &[0u8, 1u8], 5);
        assert!(check.is_ok(), "violations: {:?}", check.violations);
    }

    #[test]
    fn undefined_on_domain_is_reported() {
        struct Liar {
            universe: ConstraintUniverse,
        }
        impl RelaxationMap for Liar {
            type A = BoundedCounter;
            fn universe(&self) -> &ConstraintUniverse {
                &self.universe
            }
            fn automaton(&self, _c: ConstraintSet) -> Option<BoundedCounter> {
                None
            }
        }
        let fam = Liar {
            universe: ConstraintUniverse::new(["B1"]),
        };
        let check = check_reverse_inclusion_lattice(&fam, &[0u8], 2);
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, LatticeViolation::UndefinedOnDomain(_))));
    }
}
