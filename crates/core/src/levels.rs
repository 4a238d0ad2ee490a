//! Levels of computational self-awareness.
//!
//! The paper (Section IV) adopts Neisser's levels of human
//! self-knowledge, as translated to computing by Faniyi et al. \[44\] and
//! Lewis et al. \[41\]. Each level names a *capability class* a system may
//! or may not possess; "full-stack" self-awareness is all of them, but
//! the paper stresses that minimal subsets are often appropriate.
//!
//! | Level | Neisser origin | Computational meaning |
//! |---|---|---|
//! | [`Level::Stimulus`] | ecological self | reacts to current internal/external stimuli |
//! | [`Level::Interaction`] | interpersonal self | models interactions with other entities |
//! | [`Level::Time`] | extended self | models history and anticipated futures |
//! | [`Level::Goal`] | private/conceptual self | represents goals/objectives and trades them off |
//! | [`Level::Meta`] | meta-self-awareness (Morin) | models the quality of its own awareness |

use serde::{Deserialize, Serialize};
use std::fmt;

/// One level of computational self-awareness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Level {
    /// Stimulus awareness: knowledge of current raw phenomena
    /// (internal state and environmental stimuli).
    Stimulus,
    /// Interaction awareness: knowledge that stimuli and own actions
    /// form causal chains with other entities.
    Interaction,
    /// Time awareness: knowledge of historical phenomena and of likely
    /// futures (prediction).
    Time,
    /// Goal awareness: explicit representation of goals and their
    /// weighted objectives, enabling run-time trade-off management.
    Goal,
    /// Meta-self-awareness: awareness of the system's own awareness —
    /// of which models it runs and how well they are doing.
    Meta,
}

impl Level {
    /// All levels, in conventional (increasing sophistication) order.
    pub const ALL: [Level; 5] = [
        Level::Stimulus,
        Level::Interaction,
        Level::Time,
        Level::Goal,
        Level::Meta,
    ];

    /// Short lowercase name used in tables and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Stimulus => "stimulus",
            Level::Interaction => "interaction",
            Level::Time => "time",
            Level::Goal => "goal",
            Level::Meta => "meta",
        }
    }

    fn bit(self) -> u8 {
        match self {
            Level::Stimulus => 1 << 0,
            Level::Interaction => 1 << 1,
            Level::Time => 1 << 2,
            Level::Goal => 1 << 3,
            Level::Meta => 1 << 4,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of self-awareness levels possessed by an agent.
///
/// # Example
///
/// ```
/// use selfaware::levels::{Level, LevelSet};
///
/// let minimal = LevelSet::new().with(Level::Stimulus);
/// assert!(minimal.contains(Level::Stimulus));
/// assert!(!minimal.contains(Level::Meta));
///
/// let full = LevelSet::full();
/// assert_eq!(full.count(), 5);
/// assert!(full.contains(Level::Goal));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize, PartialOrd, Ord,
)]
pub struct LevelSet(u8);

impl LevelSet {
    /// The empty set (a purely reactive, pre-self-aware system).
    #[must_use]
    pub fn new() -> Self {
        LevelSet(0)
    }

    /// The full stack: every level.
    #[must_use]
    pub fn full() -> Self {
        Level::ALL.iter().fold(LevelSet::new(), |s, &l| s.with(l))
    }

    /// Returns a copy with `level` added.
    #[must_use]
    pub fn with(self, level: Level) -> Self {
        LevelSet(self.0 | level.bit())
    }

    /// Returns a copy with `level` removed.
    #[must_use]
    pub fn without(self, level: Level) -> Self {
        LevelSet(self.0 & !level.bit())
    }

    /// Whether `level` is in the set.
    #[must_use]
    pub fn contains(self, level: Level) -> bool {
        self.0 & level.bit() != 0
    }

    /// Number of levels present.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the levels present, in [`Level::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = Level> {
        Level::ALL.into_iter().filter(move |&l| self.contains(l))
    }

    /// Whether this set is a superset of `other`.
    #[must_use]
    pub fn is_superset_of(self, other: LevelSet) -> bool {
        self.0 & other.0 == other.0
    }
}

impl fmt::Display for LevelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("(pre-self-aware)");
        }
        let names: Vec<&str> = self.iter().map(Level::name).collect();
        f.write_str(&names.join("+"))
    }
}

impl FromIterator<Level> for LevelSet {
    fn from_iter<I: IntoIterator<Item = Level>>(iter: I) -> Self {
        iter.into_iter().fold(LevelSet::new(), LevelSet::with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        assert!(LevelSet::new().is_empty());
        assert_eq!(LevelSet::new().count(), 0);
        assert_eq!(LevelSet::full().count(), 5);
        for l in Level::ALL {
            assert!(LevelSet::full().contains(l));
        }
    }

    #[test]
    fn with_without_roundtrip() {
        let s = LevelSet::new().with(Level::Time).with(Level::Goal);
        assert!(s.contains(Level::Time));
        assert!(s.contains(Level::Goal));
        assert!(!s.contains(Level::Meta));
        let s2 = s.without(Level::Time);
        assert!(!s2.contains(Level::Time));
        assert!(s2.contains(Level::Goal));
    }

    #[test]
    fn with_is_idempotent() {
        let s = LevelSet::new().with(Level::Meta);
        assert_eq!(s.with(Level::Meta), s);
    }

    #[test]
    fn superset_relation() {
        let small = LevelSet::new().with(Level::Stimulus);
        let big = small.with(Level::Time);
        assert!(big.is_superset_of(small));
        assert!(!small.is_superset_of(big));
        assert!(LevelSet::full().is_superset_of(big));
        assert!(big.is_superset_of(LevelSet::new()));
    }

    #[test]
    fn iter_in_order() {
        let s: LevelSet = [Level::Meta, Level::Stimulus].into_iter().collect();
        let v: Vec<Level> = s.iter().collect();
        assert_eq!(v, vec![Level::Stimulus, Level::Meta]);
    }

    #[test]
    fn display_names() {
        assert_eq!(LevelSet::new().to_string(), "(pre-self-aware)");
        let s = LevelSet::new().with(Level::Stimulus).with(Level::Goal);
        assert_eq!(s.to_string(), "stimulus+goal");
        assert_eq!(Level::Meta.to_string(), "meta");
    }
}
