//! The network's learned affinity state in struct-of-arrays layout.
//!
//! Each camera learns one affinity score and keeps one invite count per
//! peer. Storing those rows inside each [`crate::camera::Camera`]
//! (array-of-structs) scattered the hottest data of the auction loop
//! across `n` separate heap allocations and forced the
//! staleness-blend path to clone a row per auction. Here the whole
//! network's scores sit in one contiguous row-major buffer
//! ([`AffinityTable`]) and its invite counts in another
//! ([`InviteCounts`]), so the per-auction hot path (affinity reads,
//! auction updates) touches cache-friendly slabs and never allocates.
//!
//! The two are separate types because only the scores are a model: a
//! supervisor owns the [`AffinityTable`], and cloning it for a
//! checkpoint is one flat copy. The invite counts record what the
//! network actually did, so a rollback never rewrites them.

use selfaware::supervision::Corruptible;

/// Row-major `n × n` learned affinity scores for the whole camera
/// network: `affinity[me * n + other]` is camera `me`'s learned
/// affinity toward camera `other`.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityTable {
    n: usize,
    affinity: Vec<f64>,
}

impl AffinityTable {
    /// Prior affinity before any handover evidence.
    pub const PRIOR: f64 = 0.5;

    /// Creates the table for an `n`-camera network, every score at
    /// [`Self::PRIOR`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            affinity: vec![Self::PRIOR; n * n],
        }
    }

    /// Number of cameras.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Camera `me`'s learned affinity for camera `other`
    /// (probability-like score that inviting them to an auction is
    /// worthwhile).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn affinity(&self, me: usize, other: usize) -> f64 {
        assert!(me < self.n && other < self.n, "camera index out of range");
        self.affinity[me * self.n + other]
    }

    /// Camera `me`'s full affinity row (one score per camera,
    /// including self).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    #[must_use]
    pub fn row(&self, me: usize) -> &[f64] {
        &self.affinity[me * self.n..(me + 1) * self.n]
    }

    /// Updates camera `me`'s affinity for `other` after an auction
    /// they were invited to: `won` is whether they took the object
    /// over.
    ///
    /// Wins reinforce strongly; losses decay gently (losing one
    /// auction usually means "the object was not near you this time",
    /// not "you are never useful" — an asymmetry Esterle-style
    /// pheromone link strengths share).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record_auction(&mut self, me: usize, other: usize, won: bool) {
        assert!(me < self.n && other < self.n, "camera index out of range");
        let a = &mut self.affinity[me * self.n + other];
        if won {
            *a += 0.3 * (1.0 - *a);
        } else {
            *a *= 0.94;
        }
    }

    /// Camera `me`'s ask-preference distribution over peers (excluding
    /// itself): normalised affinities — the camera's *latent beliefs*
    /// about who wins its handovers.
    #[must_use]
    pub fn preference(&self, me: usize) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .row(me)
            .iter()
            .enumerate()
            .map(|(j, &a)| if j == me { 0.0 } else { a.max(1e-9) })
            .collect();
        normalise(&mut v);
        v
    }

    /// Overwrites every affinity score.
    fn fill(&mut self, value: f64) {
        self.affinity.fill(value);
    }

    /// Applies `f` to every affinity score in place.
    fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for a in &mut self.affinity {
            *a = f(*a);
        }
    }

    /// Mean of every affinity score, accumulated in row-major order.
    /// NaN poison anywhere in the table surfaces here immediately.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.affinity.iter().sum::<f64>() / self.affinity.len().max(1) as f64
    }
}

impl Corruptible for AffinityTable {
    fn poison(&mut self) {
        self.fill(f64::NAN);
    }

    /// Pushes every learned score far below any invitation threshold:
    /// the network forgets who its useful neighbours are.
    fn scramble(&mut self, gain: f64) {
        self.map_in_place(|a| (a - 1.0) * gain);
    }
}

/// Row-major `n × n` auction invitation counts for the whole camera
/// network: `invites[me * n + other]` is how often camera `me` has
/// invited camera `other` to an auction.
#[derive(Debug, Clone, PartialEq)]
pub struct InviteCounts {
    n: usize,
    invites: Vec<u64>,
}

impl InviteCounts {
    /// Creates the counts for an `n`-camera network, all zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            invites: vec![0; n * n],
        }
    }

    /// Counts one invitation from camera `me` to camera `other`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, me: usize, other: usize) {
        assert!(me < self.n && other < self.n, "camera index out of range");
        self.invites[me * self.n + other] += 1;
    }

    /// Camera `me`'s *behavioural* ask distribution: the proportion of
    /// auction invitations actually sent to each peer. This — not the
    /// latent beliefs ([`AffinityTable::preference`]) — is what the F1
    /// heterogeneity metric compares, because a broadcast camera may
    /// *learn* distinct affinities yet still ask everyone
    /// (behaviourally homogeneous), while a self-aware camera's
    /// invitations themselves specialise. Uniform over peers until the
    /// first invitation.
    #[must_use]
    pub fn ask_distribution(&self, me: usize) -> Vec<f64> {
        let row = &self.invites[me * self.n..(me + 1) * self.n];
        let total: u64 = row.iter().sum();
        if total == 0 {
            let mut v = vec![1.0 / (self.n.max(2) - 1) as f64; self.n];
            v[me] = 0.0;
            return v;
        }
        let mut v: Vec<f64> = row.iter().map(|&c| c as f64).collect();
        v[me] = 0.0;
        normalise(&mut v);
        v
    }
}

fn normalise(v: &mut [f64]) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_learning_moves_toward_outcomes() {
        let mut t = AffinityTable::new(4);
        assert_eq!(t.affinity(0, 1), AffinityTable::PRIOR);
        for _ in 0..50 {
            t.record_auction(0, 1, true);
            t.record_auction(0, 2, false);
        }
        assert!(t.affinity(0, 1) > 0.95);
        assert!(t.affinity(0, 2) < 0.05);
        assert_eq!(t.affinity(0, 3), AffinityTable::PRIOR);
        // Other rows untouched.
        assert_eq!(t.affinity(1, 2), AffinityTable::PRIOR);
    }

    #[test]
    fn preference_excludes_self_and_normalises() {
        let mut t = AffinityTable::new(4);
        t.record_auction(0, 1, true);
        let p = t.preference(0);
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], 0.0, "self excluded");
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[1] > p[2]);
    }

    #[test]
    fn ask_distribution_uniform_before_any_invites() {
        let t = InviteCounts::new(4);
        let d = t.ask_distribution(1);
        assert_eq!(d[1], 0.0);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((d[0] - d[2]).abs() < 1e-12);
    }

    #[test]
    fn ask_distribution_reflects_actual_invitations() {
        let mut t = InviteCounts::new(4);
        for _ in 0..9 {
            t.record(0, 1);
        }
        t.record(0, 2);
        let d = t.ask_distribution(0);
        assert!((d[1] - 0.9).abs() < 1e-9);
        assert!((d[2] - 0.1).abs() < 1e-9);
        assert_eq!(d[3], 0.0);
        assert_eq!(
            t.ask_distribution(1),
            InviteCounts::new(4).ask_distribution(1),
            "other rows untouched"
        );
    }

    #[test]
    fn map_in_place_hits_every_score() {
        let mut t = AffinityTable::new(3);
        t.map_in_place(|a| (a - 1.0) * 30.0);
        for me in 0..3 {
            for j in 0..3 {
                assert!((t.affinity(me, j) + 15.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mean_matches_row_major_sum() {
        let mut t = AffinityTable::new(3);
        t.record_auction(1, 2, true);
        let flat: Vec<f64> = (0..3).flat_map(|me| t.row(me).to_vec()).collect();
        let expect = flat.iter().sum::<f64>() / flat.len() as f64;
        assert_eq!(t.mean(), expect);
        t.fill(f64::NAN);
        assert!(t.mean().is_nan(), "poison surfaces in the mean");
    }

    #[test]
    #[should_panic(expected = "camera index out of range")]
    fn out_of_range_read_panics() {
        let t = AffinityTable::new(2);
        let _ = t.affinity(0, 2);
    }
}
