//! Overload response: squishing allocations (§3.3, "Responding to Overload").
//!
//! When the sum of desired allocations exceeds the available CPU, the
//! controller "squishes each miscellaneous or real-rate job's proposed
//! allocation by an amount proportional to the allocation", which in the
//! absence of other information converges to equal sharing.  The extended
//! policy associates an **importance** with each job: a weighted fair share
//! where "importance determines the likelihood that a thread will get its
//! desired allocation" — unlike priority, a more important job can never
//! starve a less important one.

use rrs_scheduler::Proportion;
use serde::{Deserialize, Serialize};

/// The importance (weight) of a job under weighted fair-share squishing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Importance(f64);

impl Importance {
    /// The default importance.
    pub(crate) const NORMAL: Importance = Importance(1.0);

    /// Creates an importance weight; values are clamped to be at least a
    /// small positive number so no job can be weighted to zero (which would
    /// reintroduce starvation).
    pub fn new(weight: f64) -> Self {
        Self(weight.max(0.01))
    }

    /// Returns the weight.
    pub(crate) fn weight(self) -> f64 {
        self.0
    }
}

impl Default for Importance {
    fn default() -> Self {
        Importance::NORMAL
    }
}

/// Which squish policy the controller applies under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SquishPolicy {
    /// Scale every squishable job by the same factor (proportional to its
    /// request, so larger requests lose more in absolute terms).
    FairShare,
    /// Water-fill the available capacity by importance weight, capping each
    /// job at its request.
    WeightedFairShare,
}

/// One job's request under squishing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SquishRequest {
    /// The proportion the job wants.
    pub desired: Proportion,
    /// The job's importance (ignored by [`SquishPolicy::FairShare`]).
    pub importance: Importance,
    /// The smallest proportion the job may be squished to.
    pub floor: Proportion,
}

impl SquishRequest {
    /// Creates a request with normal importance and a floor of 1 ‰.
    pub fn new(desired: Proportion) -> Self {
        Self {
            desired,
            importance: Importance::NORMAL,
            floor: Proportion::MIN_NONZERO,
        }
    }

    /// Sets the importance.
    pub fn with_importance(mut self, importance: Importance) -> Self {
        self.importance = importance;
        self
    }
}

/// Reusable scratch buffers for the squish algorithms, so the controller's
/// steady-state cycle performs no heap allocation once warmed up.
#[derive(Debug, Clone, Default)]
pub struct SquishScratch {
    /// The water-fill's rows not yet capped at their desire, in row order.
    uncapped: Vec<u32>,
}

/// Grows `buffer`'s capacity to at least `len` elements.
fn hold<T>(buffer: &mut Vec<T>, len: usize) {
    buffer.reserve(len.saturating_sub(buffer.len()));
}

/// Squishes requests by plain fair share: every request is scaled by the
/// same factor so the total fits in `available`.
///
/// Jobs never fall below their floor; if even the floors do not fit, every
/// job gets exactly its floor (the system is hopelessly oversubscribed and
/// admission control or quality exceptions must resolve it).
pub fn squish_fair_share(requests: &[SquishRequest], available: Proportion) -> Vec<Proportion> {
    let mut out = Vec::new();
    squish_fair_share_into(requests, available.ppt(), &mut out);
    out
}

/// Allocation-free variant of [`squish_fair_share`]: grants are written
/// into `out` (cleared first, capacity reused).
///
/// `available_ppt` is the machine-wide capacity in parts per thousand and
/// may exceed 1000 on a multi-CPU machine; individual grants are still
/// capped at each job's (single-CPU) request.
pub fn squish_fair_share_into(
    requests: &[SquishRequest],
    available_ppt: u32,
    out: &mut Vec<Proportion>,
) {
    out.clear();
    let total: u64 = requests.iter().map(|r| r.desired.ppt() as u64).sum();
    let avail = available_ppt as u64;
    if total <= avail {
        out.extend(requests.iter().map(|r| r.desired));
        return;
    }
    // Overloaded, so `total > 0`; `as u32` is `floor` for the
    // non-negative products here.
    let scale = avail as f64 / total as f64;
    out.extend(requests.iter().map(|r| {
        let scaled = (r.desired.ppt() as f64 * scale) as u32;
        Proportion::from_ppt(scaled.max(r.floor.ppt()))
    }));
}

/// Squishes requests by importance-weighted fair share (water-filling).
///
/// Capacity is repeatedly divided among unsatisfied jobs in proportion to
/// their importance; jobs whose share exceeds their request are capped at
/// the request and the surplus is redistributed.  The result never exceeds
/// any job's request, never falls below its floor, and gives more important
/// jobs a larger fraction of what they asked for.
pub fn squish_weighted(requests: &[SquishRequest], available: Proportion) -> Vec<Proportion> {
    let mut out = Vec::new();
    squish_weighted_into(
        requests,
        available.ppt(),
        &mut SquishScratch::default(),
        &mut out,
    );
    out
}

/// Allocation-free variant of [`squish_weighted`]: grants are written into
/// `out` and the water-fill working state lives in `scratch` (both cleared
/// first, capacities reused).
///
/// `available_ppt` is the machine-wide capacity in parts per thousand and
/// may exceed 1000 on a multi-CPU machine; individual grants are still
/// capped at each job's (single-CPU) request.
pub fn squish_weighted_into(
    requests: &[SquishRequest],
    available_ppt: u32,
    scratch: &mut SquishScratch,
    out: &mut Vec<Proportion>,
) {
    let total: u64 = requests.iter().map(|r| r.desired.ppt() as u64).sum();
    if total <= available_ppt as u64 {
        out.clear();
        out.extend(requests.iter().map(|r| r.desired));
        return;
    }
    let weight_total = requests.iter().map(|r| r.importance.weight()).sum();
    water_fill(requests, available_ppt, weight_total, scratch, out);
}

/// The weighted water-fill over overloaded `requests`, given their weight
/// total summed in row order.
///
/// Each round offers every uncapped row `unit·wᵢ`, `unit = remaining /
/// Σ uncapped w`, and caps the rows whose offer reaches their desire,
/// taking their desire off `remaining`; the first round that caps nobody
/// hands the offers out and ends the fill.  An uncapped row holds nothing
/// until then, so its grant is that last offer, and a capped row's is its
/// desire.  A round walks `scratch`'s list of the rows still uncapped —
/// the full scan's rows in the full scan's order, so each sum and each
/// `remaining` update is the full scan's, bit for bit — and costs those
/// rows only: `n`, then however many the caps left.
fn water_fill(
    requests: &[SquishRequest],
    available_ppt: u32,
    weight_total: f64,
    scratch: &mut SquishScratch,
    out: &mut Vec<Proportion>,
) {
    let uncapped = &mut scratch.uncapped;
    uncapped.clear();
    uncapped.extend(0..requests.len() as u32);
    let mut remaining = available_ppt as f64;
    let mut active_weight = weight_total;
    // The uncapped rows' closing `unit`; 0 if the fill runs dry first.
    let mut share = 0.0;
    for _ in 0..requests.len() {
        if active_weight <= 0.0 || remaining <= 0.0 {
            break;
        }
        let unit = remaining / active_weight;
        let was_uncapped = uncapped.len();
        uncapped.retain(|&i| {
            let r = &requests[i as usize];
            let desired = r.desired.ppt() as f64;
            let capped = unit * r.importance.weight() >= desired;
            if capped {
                remaining -= desired;
            }
            !capped
        });
        if uncapped.len() == was_uncapped {
            share = unit;
            break;
        }
        active_weight = uncapped
            .iter()
            .map(|&i| requests[i as usize].importance.weight())
            .sum();
    }

    // `as u32` truncates toward zero and saturates: `floor` for every
    // non-negative offer, 0 for a negative or NaN one, as `floor` gives.
    out.clear();
    out.extend(requests.iter().map(|r| clamp_grant(r.desired.ppt(), r)));
    for &i in uncapped.iter() {
        let r = &requests[i as usize];
        out[i as usize] = clamp_grant((share * r.importance.weight()) as u32, r);
    }
}

/// A water-fill grant truncated to `g` ‰, held between the row's floor and
/// its desire (or its floor, should that be higher).
fn clamp_grant(g: u32, r: &SquishRequest) -> Proportion {
    Proportion::from_ppt(g.clamp(r.floor.ppt(), r.desired.ppt().max(r.floor.ppt())))
}

/// Applies the configured policy.
pub fn squish(
    policy: SquishPolicy,
    requests: &[SquishRequest],
    available: Proportion,
) -> Vec<Proportion> {
    match policy {
        SquishPolicy::FairShare => squish_fair_share(requests, available),
        SquishPolicy::WeightedFairShare => squish_weighted(requests, available),
    }
}

/// Applies the configured policy without allocating: grants go to `out`,
/// working state to `scratch` (capacities reused across calls).
/// `available_ppt` may exceed 1000 on a multi-CPU machine.
pub(crate) fn squish_into(
    policy: SquishPolicy,
    requests: &[SquishRequest],
    available_ppt: u32,
    scratch: &mut SquishScratch,
    out: &mut Vec<Proportion>,
) {
    match policy {
        SquishPolicy::FairShare => squish_fair_share_into(requests, available_ppt, out),
        SquishPolicy::WeightedFairShare => {
            squish_weighted_into(requests, available_ppt, scratch, out)
        }
    }
}

/// The squish inputs and committed grants of a fixed job population, kept
/// between controller cycles so a cycle pays for the desires and grants
/// that moved instead of re-listing every job.
///
/// [`SquishColumns::rebuild`] lists the rows once (at a controller
/// rebuild), each with the grant its job holds; [`SquishColumns::set_desired`]
/// then edits one row in place and keeps the desired total current, and
/// [`SquishColumns::regrant`] evaluates exactly what [`squish_into`] over
/// the same rows would grant, commits it to the `held` column and hands
/// back only the rows whose grant moved — or nothing at all when it can
/// prove those grants equal the previous answer without running the
/// squish.  `held` mirrors the controller's `JobEntry::granted` row for
/// row, so the controller reads a row's grant here and touches a job's
/// entry only when its grant moved.
///
/// The proof: under [`SquishPolicy::WeightedFairShare`] the water-fill's
/// first round offers row *i* `unit·wᵢ`, `unit = available / Σw`, and caps
/// the rows whose offer reaches their desire.  While the rows are
/// overloaded and that round caps *nobody*, it is also the last round, and
/// every grant is `max(⌊unit·wᵢ⌋, floorᵢ)` — a function of weights, floors
/// and capacity, none of which [`SquishColumns::set_desired`] can change.
/// So two consecutive evaluations in that regime grant the same thing.
/// The columns cache `Σw` (summed in [`squish_weighted_into`]'s order, so
/// the water-fill starts from it) and `unit`, and count the rows round one
/// would cap, which makes the regime test `O(1)`.  Outside it, an
/// evaluation costs the water-fill's rounds — `n` rows, then only the
/// rows still uncapped — plus one pass comparing grants with `held`.
#[derive(Debug)]
pub(crate) struct SquishColumns {
    policy: SquishPolicy,
    available_ppt: u32,
    requests: Vec<SquishRequest>,
    /// Each row's committed grant: its job's `JobEntry::granted`.
    held: Vec<Proportion>,
    desired_total_ppt: u64,
    /// `Σ weight` over the rows, in row order.
    weight_total: f64,
    /// The water-fill's first-round `available / Σ weight`.
    unit: f64,
    /// Rows that round would cap: `unit·w ≥ desired`.
    capped_rows: usize,
    /// The last `regrant` evaluation was in the desire-independent regime
    /// (never after a `rebuild`, which no evaluation has seen yet).
    desire_free: bool,
    /// Scratch: the last evaluation's grants, row-aligned.
    grants: Vec<Proportion>,
    /// Scratch: the rows the last evaluation moved, with their new grants.
    moved: Vec<(u32, Proportion)>,
    scratch: SquishScratch,
}

impl SquishColumns {
    /// Empty columns for `policy`.
    pub(crate) fn new(policy: SquishPolicy) -> Self {
        Self {
            policy,
            available_ppt: 0,
            requests: Vec::new(),
            held: Vec::new(),
            desired_total_ppt: 0,
            weight_total: 0.0,
            unit: 0.0,
            capped_rows: 0,
            desire_free: false,
            grants: Vec::new(),
            moved: Vec::new(),
            scratch: SquishScratch::default(),
        }
    }

    /// Replaces the rows, each with the grant its job holds.  The next
    /// [`SquishColumns::regrant`] evaluates them, whatever their desires.
    pub(crate) fn rebuild(
        &mut self,
        available_ppt: u32,
        rows: impl Iterator<Item = (SquishRequest, Proportion)>,
    ) {
        self.available_ppt = available_ppt;
        self.requests.clear();
        self.held.clear();
        for (request, held) in rows {
            self.requests.push(request);
            self.held.push(held);
        }
        // An evaluation over these rows grows no scratch, however long
        // after this its first squish comes (a shard may overload late).
        let rows = self.requests.len();
        hold(&mut self.scratch.uncapped, rows);
        hold(&mut self.grants, rows);
        hold(&mut self.moved, rows);
        self.weight_total = self.requests.iter().map(|r| r.importance.weight()).sum();
        self.unit = available_ppt as f64 / self.weight_total;
        self.desired_total_ppt = 0;
        self.capped_rows = 0;
        for r in &self.requests {
            self.desired_total_ppt += r.desired.ppt() as u64;
            self.capped_rows += caps(self.unit, r.importance, r.desired) as usize;
        }
        self.desire_free = false;
    }

    /// Row `row`'s current desire.
    pub(crate) fn desired(&self, row: usize) -> Proportion {
        self.requests[row].desired
    }

    /// Row `row`'s committed grant.
    pub(crate) fn held(&self, row: usize) -> Proportion {
        self.held[row]
    }

    /// Changes row `row`'s desire in place.
    pub(crate) fn set_desired(&mut self, row: usize, desired: Proportion) {
        let r = &mut self.requests[row];
        self.capped_rows -= caps(self.unit, r.importance, r.desired) as usize;
        self.capped_rows += caps(self.unit, r.importance, desired) as usize;
        self.desired_total_ppt =
            self.desired_total_ppt - r.desired.ppt() as u64 + desired.ppt() as u64;
        r.desired = desired;
    }

    /// Sum of the rows' desires, in parts per thousand.
    pub(crate) fn desired_total_ppt(&self) -> u64 {
        self.desired_total_ppt
    }

    /// The capacity the rows share, in parts per thousand.
    pub(crate) fn available_ppt(&self) -> u32 {
        self.available_ppt
    }

    /// Whether the desires exceed the capacity (a squish is due).
    pub(crate) fn overloaded(&self) -> bool {
        self.desired_total_ppt > self.available_ppt as u64
    }

    fn in_desire_free_regime(&self) -> bool {
        self.policy == SquishPolicy::WeightedFairShare && self.overloaded() && self.capped_rows == 0
    }

    /// Evaluates the rows after a batch of [`SquishColumns::set_desired`]
    /// calls and commits the grants to `held`: the rows whose grant moved,
    /// in row order with their new grants, or `None` when the grants
    /// provably equal the previous evaluation's.
    pub(crate) fn regrant(&mut self) -> Option<&[(u32, Proportion)]> {
        let was_desire_free = self.desire_free;
        self.desire_free = self.in_desire_free_regime();
        if was_desire_free && self.desire_free {
            return None;
        }
        match self.policy {
            SquishPolicy::WeightedFairShare if self.overloaded() => water_fill(
                &self.requests,
                self.available_ppt,
                self.weight_total,
                &mut self.scratch,
                &mut self.grants,
            ),
            policy => squish_into(
                policy,
                &self.requests,
                self.available_ppt,
                &mut self.scratch,
                &mut self.grants,
            ),
        }
        self.moved.clear();
        for (row, (held, &grant)) in self.held.iter_mut().zip(&self.grants).enumerate() {
            if *held != grant {
                *held = grant;
                self.moved.push((row as u32, grant));
            }
        }
        Some(&self.moved)
    }
}

/// Whether the water-fill's first round caps a row: the offer test of
/// [`squish_weighted_into`] with nothing granted yet.
fn caps(unit: f64, importance: Importance, desired: Proportion) -> bool {
    unit * importance.weight() >= desired.ppt() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(ppt: u32) -> SquishRequest {
        SquishRequest::new(Proportion::from_ppt(ppt))
    }

    fn req_w(ppt: u32, weight: f64) -> SquishRequest {
        SquishRequest::new(Proportion::from_ppt(ppt)).with_importance(Importance::new(weight))
    }

    /// The fair share as first written, `floor` and the unreachable
    /// zero-total branch included: the reference for the truncating one.
    fn reference_fair_share(requests: &[SquishRequest], available_ppt: u32) -> Vec<Proportion> {
        let total: u64 = requests.iter().map(|r| r.desired.ppt() as u64).sum();
        let avail = available_ppt as u64;
        if total <= avail {
            return requests.iter().map(|r| r.desired).collect();
        }
        if total == 0 {
            return requests.iter().map(|r| r.floor).collect();
        }
        let scale = avail as f64 / total as f64;
        requests
            .iter()
            .map(|r| {
                let scaled = (r.desired.ppt() as f64 * scale).floor() as u32;
                Proportion::from_ppt(scaled.max(r.floor.ppt()))
            })
            .collect()
    }

    /// The water-fill as first written: every round scans every row,
    /// skipping the capped ones, and grants are `floor`ed.  The reference
    /// the uncapped-list water-fill must match grant for grant.
    fn reference_weighted(requests: &[SquishRequest], available_ppt: u32) -> Vec<Proportion> {
        let total: u64 = requests.iter().map(|r| r.desired.ppt() as u64).sum();
        if total <= available_ppt as u64 {
            return requests.iter().map(|r| r.desired).collect();
        }
        let n = requests.len();
        let mut grant = vec![0.0f64; n];
        let mut capped = vec![false; n];
        let mut remaining = available_ppt as f64;
        for _ in 0..n {
            let active_weight: f64 = requests
                .iter()
                .zip(capped.iter())
                .filter(|(_, &c)| !c)
                .map(|(r, _)| r.importance.weight())
                .sum();
            if active_weight <= 0.0 || remaining <= 0.0 {
                break;
            }
            let mut newly_capped = false;
            let unit = remaining / active_weight;
            for i in 0..n {
                if capped[i] {
                    continue;
                }
                let offered = grant[i] + unit * requests[i].importance.weight();
                if offered >= requests[i].desired.ppt() as f64 {
                    remaining -= requests[i].desired.ppt() as f64 - grant[i];
                    grant[i] = requests[i].desired.ppt() as f64;
                    capped[i] = true;
                    newly_capped = true;
                }
            }
            if !newly_capped {
                for i in 0..n {
                    if !capped[i] {
                        grant[i] += unit * requests[i].importance.weight();
                    }
                }
                break;
            }
        }
        requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let g = grant[i].floor() as u32;
                Proportion::from_ppt(g.clamp(r.floor.ppt(), r.desired.ppt().max(r.floor.ppt())))
            })
            .collect()
    }

    #[test]
    fn no_squish_needed_when_capacity_suffices() {
        let requests = [req(200), req(300)];
        let available = Proportion::from_ppt(600);
        assert_eq!(
            squish_fair_share(&requests, available),
            vec![Proportion::from_ppt(200), Proportion::from_ppt(300)]
        );
        assert_eq!(
            squish_weighted(&requests, available),
            vec![Proportion::from_ppt(200), Proportion::from_ppt(300)]
        );
    }

    #[test]
    fn fair_share_scales_proportionally() {
        let requests = [req(600), req(300)];
        let out = squish_fair_share(&requests, Proportion::from_ppt(450));
        // Scale factor 0.5.
        assert_eq!(out[0].ppt(), 300);
        assert_eq!(out[1].ppt(), 150);
    }

    #[test]
    fn equal_greedy_jobs_share_equally() {
        // "In the absence of other information this policy results in equal
        // allocation of the CPU to all competing jobs."
        let requests = [req(1000), req(1000), req(1000)];
        let out = squish_fair_share(&requests, Proportion::from_ppt(900));
        assert_eq!(out[0].ppt(), 300);
        assert_eq!(out[1].ppt(), 300);
        assert_eq!(out[2].ppt(), 300);
    }

    #[test]
    fn weighted_gives_important_job_more() {
        let requests = [req_w(1000, 2.0), req_w(1000, 1.0)];
        let out = squish_weighted(&requests, Proportion::from_ppt(900));
        assert!(out[0].ppt() > out[1].ppt());
        // 2:1 split of 900.
        assert_eq!(out[0].ppt(), 600);
        assert_eq!(out[1].ppt(), 300);
    }

    #[test]
    fn weighted_never_starves_unimportant_job() {
        let requests = [req_w(1000, 100.0), req_w(1000, 0.01)];
        let out = squish_weighted(&requests, Proportion::from_ppt(900));
        assert!(out[1].ppt() >= 1, "unimportant job was starved");
        assert!(out[0].ppt() > out[1].ppt());
    }

    #[test]
    fn weighted_caps_at_request_and_redistributes() {
        // Job 0 wants only 100 ‰; its unused share goes to job 1.
        let requests = [req_w(100, 1.0), req_w(1000, 1.0)];
        let out = squish_weighted(&requests, Proportion::from_ppt(900));
        assert_eq!(out[0].ppt(), 100);
        assert_eq!(out[1].ppt(), 800);
    }

    #[test]
    fn weighted_satisfied_jobs_keep_their_request() {
        let requests = [req_w(50, 1.0), req_w(50, 5.0), req_w(2000, 1.0)];
        let out = squish_weighted(&requests, Proportion::from_ppt(900));
        assert_eq!(out[0].ppt(), 50);
        assert_eq!(out[1].ppt(), 50);
        assert_eq!(out[2].ppt(), 800);
    }

    #[test]
    fn weighted_with_equal_importances_degenerates_to_equal_split() {
        // With equal weights the water-fill must match plain fair share on
        // identical requests: no job is favoured.
        let requests = [req_w(1000, 3.0), req_w(1000, 3.0), req_w(1000, 3.0)];
        let out = squish_weighted(&requests, Proportion::from_ppt(900));
        assert_eq!(out[0].ppt(), 300);
        assert_eq!(out[1].ppt(), 300);
        assert_eq!(out[2].ppt(), 300);
    }

    #[test]
    fn zero_desire_request_is_capped_at_its_floor() {
        // A job that asks for nothing must not absorb capacity under either
        // policy; it is held at its floor while the rest is distributed.
        let requests = [req(0), req(1000), req(1000)];
        for policy in [SquishPolicy::FairShare, SquishPolicy::WeightedFairShare] {
            let out = squish(policy, &requests, Proportion::from_ppt(900));
            assert_eq!(
                out[0], requests[0].floor,
                "zero-desire job held at floor under {policy:?}"
            );
            assert!(out[1].ppt() > 300 && out[2].ppt() > 300);
        }
    }

    #[test]
    fn desired_total_exactly_at_capacity_is_not_squished() {
        let requests = [req(600), req(300)];
        let out = squish_fair_share(&requests, Proportion::from_ppt(900));
        assert_eq!(out[0].ppt(), 600);
        assert_eq!(out[1].ppt(), 300);
        let out = squish_weighted(&requests, Proportion::from_ppt(900));
        assert_eq!(out[0].ppt(), 600);
        assert_eq!(out[1].ppt(), 300);
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_the_allocating_api() {
        let requests = [req_w(700, 2.0), req_w(600, 1.0), req_w(100, 1.0)];
        let available = Proportion::from_ppt(800);
        let mut scratch = SquishScratch::default();
        let mut out = Vec::new();
        for policy in [SquishPolicy::FairShare, SquishPolicy::WeightedFairShare] {
            squish_into(policy, &requests, available.ppt(), &mut scratch, &mut out);
            assert_eq!(out, squish(policy, &requests, available));
        }
        let cap = out.capacity();
        squish_into(
            SquishPolicy::WeightedFairShare,
            &requests,
            available.ppt(),
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.capacity(), cap, "buffers are reused, not reallocated");
    }

    #[test]
    fn multi_cpu_capacity_above_one_cpu_is_respected() {
        // A 4-CPU machine offers 3800 ‰; three greedy jobs fit without
        // squishing, each still capped at one CPU's worth.
        let requests = [req(1000), req(1000), req(1000)];
        let mut scratch = SquishScratch::default();
        let mut out = Vec::new();
        for policy in [SquishPolicy::FairShare, SquishPolicy::WeightedFairShare] {
            squish_into(policy, &requests, 3800, &mut scratch, &mut out);
            assert_eq!(out.iter().map(|p| p.ppt()).sum::<u32>(), 3000);
        }
        // Five such jobs exceed 3800 ‰ and are squished to fit it.
        let requests = [req(1000); 5];
        squish_into(
            SquishPolicy::WeightedFairShare,
            &requests,
            3800,
            &mut scratch,
            &mut out,
        );
        let total: u32 = out.iter().map(|p| p.ppt()).sum();
        assert!((3700..=3800).contains(&total), "got {total}");
        assert!(out.iter().all(|p| p.ppt() <= 1000));
    }

    #[test]
    fn empty_request_list() {
        assert!(squish_fair_share(&[], Proportion::from_ppt(500)).is_empty());
        assert!(squish_weighted(&[], Proportion::from_ppt(500)).is_empty());
    }

    #[test]
    fn zero_desired_total_with_fair_share() {
        let requests = [req(0), req(0)];
        let out = squish_fair_share(&requests, Proportion::from_ppt(0));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn policy_dispatcher() {
        let requests = [req(600), req(600)];
        let a = squish(
            SquishPolicy::FairShare,
            &requests,
            Proportion::from_ppt(600),
        );
        let b = squish(
            SquishPolicy::WeightedFairShare,
            &requests,
            Proportion::from_ppt(600),
        );
        assert_eq!(a[0].ppt() + a[1].ppt(), 600);
        // Weighted water-fill may round down each grant by at most 1 ‰.
        let total_b = b[0].ppt() + b[1].ppt();
        assert!((598..=600).contains(&total_b));
    }

    #[test]
    fn importance_is_clamped_positive() {
        assert!(Importance::new(-5.0).weight() > 0.0);
        assert_eq!(Importance::default().weight(), 1.0);
    }

    /// What the controller does with [`SquishColumns`]: a rebuild lists
    /// the rows with the grants the jobs hold and evaluates them at once;
    /// a batch of desire changes is evaluated by `regrant`, and only the
    /// rows it hands back change their committed grant.
    struct DeltaHarness {
        policy: SquishPolicy,
        available_ppt: u32,
        rows: Vec<SquishRequest>,
        columns: SquishColumns,
        committed: Vec<Proportion>,
        total_granted_ppt: u32,
        scratch: SquishScratch,
        expected: Vec<Proportion>,
        skips: usize,
    }

    impl DeltaHarness {
        fn new(policy: SquishPolicy, available_ppt: u32, rows: Vec<SquishRequest>) -> Self {
            let mut h = Self {
                policy,
                available_ppt,
                committed: vec![Proportion::ZERO; rows.len()],
                rows,
                columns: SquishColumns::new(policy),
                total_granted_ppt: 0,
                scratch: SquishScratch::default(),
                expected: Vec::new(),
                skips: 0,
            };
            h.rebuild().unwrap();
            h
        }

        fn squish_afresh(&mut self) {
            squish_into(
                self.policy,
                &self.rows,
                self.available_ppt,
                &mut self.scratch,
                &mut self.expected,
            );
        }

        /// A controller rebuild: new rows, evaluated at once.
        fn rebuild(&mut self) -> Result<(), String> {
            self.columns.rebuild(
                self.available_ppt,
                self.rows
                    .iter()
                    .copied()
                    .zip(self.committed.iter().copied()),
            );
            if self.columns.regrant().is_none() {
                return Err("a rebuild is evaluated".into());
            }
            self.commit_moved()
        }

        fn want(&mut self, row: usize, desired: u32) {
            let desired = Proportion::from_ppt(desired);
            self.rows[row].desired = desired;
            self.columns.set_desired(row, desired);
        }

        /// Ends a batch of desire changes the way a controller cycle
        /// does, then checks every output against the oracle.
        fn regrant_and_check(&mut self) -> Result<(), String> {
            match self.columns.regrant() {
                Some(_) => self.commit_moved()?,
                None => self.skips += 1,
            }
            self.check()
        }

        /// Commits the rows the last evaluation moved, after checking they
        /// are exactly the rows whose from-scratch grant differs from the
        /// committed one, and that `held` mirrors the committed grants.
        fn commit_moved(&mut self) -> Result<(), String> {
            self.squish_afresh();
            let want: Vec<(u32, Proportion)> = (0..self.rows.len())
                .filter(|&row| self.expected[row] != self.committed[row])
                .map(|row| (row as u32, self.expected[row]))
                .collect();
            let moved = self.columns.moved.clone();
            if moved != want {
                return Err(format!("moved rows {moved:?} != {want:?}"));
            }
            for (row, grant) in moved {
                let old = &mut self.committed[row as usize];
                self.total_granted_ppt = self.total_granted_ppt + grant.ppt() - old.ppt();
                *old = grant;
            }
            if self.columns.held != self.committed {
                return Err(format!(
                    "held {:?} != committed {:?}",
                    self.columns.held, self.committed
                ));
            }
            Ok(())
        }

        fn check(&mut self) -> Result<(), String> {
            self.squish_afresh();
            if self.committed != self.expected {
                return Err(format!(
                    "grants {:?} != from-scratch {:?} (rows {:?}, available {})",
                    self.committed, self.expected, self.rows, self.available_ppt
                ));
            }
            let total: u32 = self.expected.iter().map(|g| g.ppt()).sum();
            if self.total_granted_ppt != total {
                return Err(format!("total {} != {total}", self.total_granted_ppt));
            }
            // The `Squished` event's fields.
            let desired_total: u64 = self.rows.iter().map(|r| r.desired.ppt() as u64).sum();
            let event = (
                self.columns.overloaded(),
                self.columns.desired_total_ppt(),
                self.columns.available_ppt(),
            );
            let expected_event = (
                desired_total > self.available_ppt as u64,
                desired_total,
                self.available_ppt,
            );
            if event != expected_event {
                return Err(format!("event {event:?} != {expected_event:?}"));
            }
            Ok(())
        }
    }

    #[test]
    fn regrant_skips_only_between_two_uncapped_overloaded_evaluations() {
        // Four equal rows over 400 ‰: round one offers each 100 ‰.
        let rows = vec![req(500); 4];
        let mut h = DeltaHarness::new(SquishPolicy::WeightedFairShare, 400, rows.clone());
        // Overloaded, nobody capped, before and after: skipped.
        h.want(0, 900);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 1);
        // Row 1 now asks for less than its offer: capped, so evaluated.
        h.want(1, 40);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 1);
        assert_eq!(h.committed[1].ppt(), 40);
        // Back above the offer: the cap set empties, but the committed
        // grants still carry the redistribution, so evaluated once more...
        h.want(1, 300);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 1);
        // ...and only then skipped again.
        h.want(2, 700);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 2);
        // Leaving overload and coming back both evaluate.
        for row in 0..4 {
            h.want(row, 100);
        }
        h.regrant_and_check().unwrap();
        h.want(3, 101);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 2);
        // A desire exactly at the offer is capped (`>=`), one above is not.
        h.want(3, 100);
        h.want(0, 800);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 2);
        // A floor above the desire does not disturb the argument.
        let mut floored = rows;
        floored[0].floor = Proportion::from_ppt(150);
        floored[0].desired = Proportion::from_ppt(120);
        let mut h = DeltaHarness::new(SquishPolicy::WeightedFairShare, 400, floored);
        assert_eq!(h.committed[0].ppt(), 150);
        h.want(1, 600);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 1);
        // Fair share scales by the desired total: never skipped.
        let mut h = DeltaHarness::new(SquishPolicy::FairShare, 400, vec![req(500); 4]);
        h.want(0, 900);
        h.regrant_and_check().unwrap();
        assert_eq!(h.skips, 0);
    }

    proptest! {
        /// The delta path against a from-scratch `squish_into` after every
        /// step, for both policies.  Steps are `(selector, row, value,
        /// extra)` tuples (the vendored proptest miniature has no
        /// `prop_oneof`): selectors 0–5 change one to three desires and
        /// evaluate, 6–8 change a weight, a floor or the capacity and
        /// rebuild, as the structural events behind them force a
        /// controller rebuild.  Desires come from three bands — below the
        /// floors and first-round offers, around them, and far above —
        /// and capacities from zero to beyond the desired total, so runs
        /// cross overloaded ↔ not, cap set empty ↔ non-empty and desired
        /// < floor in both directions.
        #[test]
        fn delta_path_matches_from_scratch_squish(
            weighted in proptest::bool::ANY,
            initial in proptest::collection::vec((0u32..=1000, 0.1f64..8.0, 0u32..=30), 1..12),
            capacity in 0u32..=1200,
            steps in proptest::collection::vec(
                (0u8..9, 0usize..12, 0u32..=1000, 0u8..3),
                1..60,
            ),
        ) {
            let policy = if weighted {
                SquishPolicy::WeightedFairShare
            } else {
                SquishPolicy::FairShare
            };
            let rows: Vec<SquishRequest> = initial
                .iter()
                .map(|&(desired, weight, floor)| SquishRequest {
                    desired: Proportion::from_ppt(desired),
                    importance: Importance::new(weight),
                    floor: Proportion::from_ppt(floor),
                })
                .collect();
            let n = rows.len();
            let mut h = DeltaHarness::new(policy, capacity, rows);
            if let Err(e) = h.check() {
                prop_assert!(false, "after the first rebuild: {e}");
            }
            for (selector, row, value, extra) in steps {
                match selector {
                    0..=5 => {
                        for k in 0..=extra as usize {
                            let desired = match (selector + k as u8) % 3 {
                                0 => value % 40,
                                1 => value % 250,
                                _ => value,
                            };
                            h.want((row + k * 5) % n, desired);
                        }
                        if let Err(e) = h.regrant_and_check() {
                            prop_assert!(false, "after a desire batch: {e}");
                        }
                    }
                    6 => {
                        h.rows[row % n].importance = Importance::new(value as f64 / 100.0);
                    }
                    7 => {
                        h.rows[row % n].floor = Proportion::from_ppt(value % 60);
                    }
                    _ => {
                        h.available_ppt = match extra {
                            0 => value % 50,
                            1 => value,
                            _ => value * 12,
                        };
                    }
                }
                if selector >= 6 {
                    if let Err(e) = h.rebuild() {
                        prop_assert!(false, "at a rebuild: {e}");
                    }
                }
                if let Err(e) = h.check() {
                    prop_assert!(false, "after a rebuild: {e}");
                }
            }
        }

        /// Both policies against the full-scan reference, grant for
        /// grant.  Rows are `(desired, weight, floor, kind)`: kind 0 zeroes
        /// the desire and kind 1 sets the normal importance, so a case
        /// mixes zero desires, floors above desires and ties between equal
        /// weights with arbitrary ones; capacities run from zero to beyond
        /// the desired total, so cases take one water-fill round, several,
        /// or none.
        #[test]
        fn squish_matches_full_scan_reference(
            rows in proptest::collection::vec((0u32..=1000, 0.01f64..20.0, 0u32..=60, 0u8..4), 0..40),
            capacity in 0u32..=6000,
        ) {
            let requests: Vec<SquishRequest> = rows
                .iter()
                .map(|&(desired, weight, floor, kind)| SquishRequest {
                    desired: Proportion::from_ppt(if kind == 0 { 0 } else { desired }),
                    importance: if kind == 1 { Importance::NORMAL } else { Importance::new(weight) },
                    floor: Proportion::from_ppt(floor),
                })
                .collect();
            let mut scratch = SquishScratch::default();
            let mut out = Vec::new();
            squish_fair_share_into(&requests, capacity, &mut out);
            prop_assert_eq!(&out, &reference_fair_share(&requests, capacity));
            squish_weighted_into(&requests, capacity, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference_weighted(&requests, capacity));
        }

        #[test]
        fn fair_share_result_fits_capacity(
            desires in proptest::collection::vec(0u32..=1000, 1..10),
            available in 100u32..=1000,
        ) {
            let requests: Vec<SquishRequest> = desires.iter().map(|&d| req(d)).collect();
            let out = squish_fair_share(&requests, Proportion::from_ppt(available));
            let total: u64 = out.iter().map(|p| p.ppt() as u64).sum();
            let desired_total: u64 = desires.iter().map(|&d| d as u64).sum();
            // Either everything fits, or the result respects the capacity
            // (up to the per-job floors which add at most n ‰).
            if desired_total > available as u64 {
                prop_assert!(total <= available as u64 + requests.len() as u64);
            } else {
                prop_assert_eq!(total, desired_total);
            }
            // No one ever gets more than they asked for (or their floor).
            for (r, got) in requests.iter().zip(&out) {
                prop_assert!(got.ppt() <= r.desired.ppt().max(r.floor.ppt()));
            }
        }

        #[test]
        fn weighted_result_fits_capacity_and_respects_requests(
            desires in proptest::collection::vec(1u32..=1000, 1..10),
            weights in proptest::collection::vec(0.1f64..10.0, 10),
            available in 100u32..=1000,
        ) {
            let requests: Vec<SquishRequest> = desires
                .iter()
                .zip(weights.iter())
                .map(|(&d, &w)| req_w(d, w))
                .collect();
            let out = squish_weighted(&requests, Proportion::from_ppt(available));
            let total: u64 = out.iter().map(|p| p.ppt() as u64).sum();
            let desired_total: u64 = desires.iter().map(|&d| d as u64).sum();
            if desired_total > available as u64 {
                prop_assert!(total <= available as u64 + requests.len() as u64);
            }
            for (r, got) in requests.iter().zip(&out) {
                prop_assert!(got.ppt() <= r.desired.ppt().max(r.floor.ppt()));
                prop_assert!(got.ppt() >= r.floor.ppt());
            }
        }

        #[test]
        fn weighted_preserves_importance_ordering_for_identical_requests(
            w1 in 0.1f64..10.0,
            w2 in 0.1f64..10.0,
            available in 100u32..900,
        ) {
            let requests = [req_w(1000, w1), req_w(1000, w2)];
            let out = squish_weighted(&requests, Proportion::from_ppt(available));
            if w1 > w2 {
                prop_assert!(out[0].ppt() >= out[1].ppt());
            } else if w2 > w1 {
                prop_assert!(out[1].ppt() >= out[0].ppt());
            }
        }
    }
}
