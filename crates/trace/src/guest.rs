//! Guest-side attribution profiler: per-PC cycle/stall accounting and
//! per-WRPKRU-site cost profiles.
//!
//! The host-side layer ([`crate::obs`]) answers *where the simulator
//! spends host time*; this module answers *where the simulated guest
//! spends guest cycles*. The pipeline charges a [`GuestProfile`] from
//! three places:
//!
//! * **retire** — each retiring instruction charges its PC with one
//!   retired count plus the retire-to-retire cycle gap it closed (the
//!   first retire of a cycle absorbs the whole gap, same-cycle retires
//!   charge zero), so per-PC cycle charges sum exactly to the run's
//!   cycle count (the full-attribution invariant);
//! * **rename** — stalled rename slots charge the stalling PC with the
//!   existing 9-cause CPI stack;
//! * **squash / replay** — squash triggers and load replays charge the
//!   triggering PC, and a dedicated WRPKRU *site* sub-table tracks each
//!   permission-update site's executions, rename-to-retire latency,
//!   squashes attributed to it, and `ROB_pkru` residency.
//!
//! Everything is off by default: a disabled profile is a single branch
//! per charge call, allocates nothing, and emits nothing, so stats
//! artifacts stay byte-identical to a build without the profiler.
//!
//! The PC table is open-addressed with power-of-two capacity and linear
//! probing (no std `HashMap` in the hot path); JSON output sorts
//! entries, so it is independent of insertion order and hash layout.

use crate::histogram::Histogram;
use crate::json::Json;

/// Upper bound on distinct rename-stall causes a profile can track.
/// The simulator currently defines 9; the headroom keeps this crate
/// decoupled from the `ooo` enum.
pub const MAX_STALL_CAUSES: usize = 16;

/// Default `top_n` for the hot-PC section of [`GuestProfile::to_json`].
pub const DEFAULT_PROFILE_TOP_N: usize = 32;

/// Environment variable that makes experiment bins write
/// `guest_profile/<name>.json` artifacts.
pub const GUEST_PROFILE_ENV: &str = "SPECMPK_GUEST_PROFILE";

/// The one PC rendering used everywhere a guest address is shown
/// (profile JSON, report tables, and journal records, which write it in
/// place with [`Record::hex`](crate::json::Record::hex)): lowercase hex
/// with a `0x` prefix and no padding.
#[must_use]
pub fn fmt_pc(pc: u64) -> String {
    format!("{pc:#x}")
}

/// Fibonacci multiplicative hash; the high bits feed the probe start.
fn hash_pc(pc: u64) -> u64 {
    pc.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An open-addressed PC-keyed table: power-of-two capacity, linear
/// probing, grown at 3/4 load. Iteration order is slot order (hash
/// dependent); callers sort before emitting. Shared with the leak
/// ledger's per-PC retirement counts.
#[derive(Debug, Clone)]
pub(crate) struct PcTable<T> {
    slots: Vec<Option<(u64, T)>>,
    len: usize,
}

impl<T> Default for PcTable<T> {
    fn default() -> Self {
        PcTable { slots: Vec::new(), len: 0 }
    }
}

impl<T: Default> PcTable<T> {
    /// Slot index holding `pc`, or the empty slot where it belongs.
    /// Capacity must be non-zero and not full.
    fn probe(slots: &[Option<(u64, T)>], pc: u64) -> usize {
        let mask = slots.len() - 1;
        let mut i = (hash_pc(pc) >> 32) as usize & mask;
        loop {
            match &slots[i] {
                Some((k, _)) if *k != pc => i = (i + 1) & mask,
                _ => return i,
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let mut slots: Vec<Option<(u64, T)>> = Vec::with_capacity(cap);
        slots.resize_with(cap, || None);
        for slot in self.slots.drain(..).flatten() {
            let i = Self::probe(&slots, slot.0);
            slots[i] = Some(slot);
        }
        self.slots = slots;
    }

    /// The entry for `pc`, if present.
    pub(crate) fn get(&self, pc: u64) -> Option<&T> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[Self::probe(&self.slots, pc)].as_ref().map(|(_, t)| t)
    }

    /// The entry for `pc`, inserted at default if absent.
    pub(crate) fn entry_mut(&mut self, pc: u64) -> &mut T {
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let i = Self::probe(&self.slots, pc);
        if self.slots[i].is_none() {
            self.slots[i] = Some((pc, T::default()));
            self.len += 1;
        }
        &mut self.slots[i].as_mut().expect("probe returned the slot for pc").1
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().flatten().map(|(pc, t)| (*pc, t))
    }
}

/// Per-PC charges from the retire, rename, and squash/replay paths.
#[derive(Debug, Clone, Default)]
struct PcEntry {
    retired: u64,
    cycles: u64,
    squash_triggers: u64,
    load_replays: u64,
    stall_slots: [u64; MAX_STALL_CAUSES],
}

/// Per-WRPKRU-site charges.
#[derive(Debug, Clone, Default)]
struct SiteEntry {
    executions: u64,
    squashed: u64,
    squashes_caused: u64,
    residency: u64,
    latency: Histogram,
}

/// The guest attribution profile. Owned by the stats block of one core;
/// disabled (and free) unless [`GuestProfile::set_enabled`] turns it on.
#[derive(Debug, Clone)]
pub struct GuestProfile {
    enabled: bool,
    top_n: usize,
    pcs: PcTable<PcEntry>,
    sites: PcTable<SiteEntry>,
    /// In-flight (renamed, not yet retired/squashed) WRPKRUs in rename
    /// order: youngest last.
    inflight: Vec<(u64, u64)>,
    /// PC of the most recent cycle charge — end-of-run residue and
    /// flush-absorbed gaps land here so attribution stays total.
    last_pc: u64,
    charged_cycles: u64,
    squash_batches: u64,
    squash_batches_with_wrpkru: u64,
}

impl Default for GuestProfile {
    fn default() -> Self {
        GuestProfile {
            enabled: false,
            top_n: DEFAULT_PROFILE_TOP_N,
            pcs: PcTable::default(),
            sites: PcTable::default(),
            inflight: Vec::new(),
            last_pc: 0,
            charged_cycles: 0,
            squash_batches: 0,
            squash_batches_with_wrpkru: 0,
        }
    }
}

impl GuestProfile {
    /// Whether charge calls record anything.
    #[must_use]
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns charging on or off. Off is the default and costs one
    /// predictable branch per charge call.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Caps the `hot_pcs` section of [`GuestProfile::to_json`] at `n`
    /// entries (the WRPKRU site table is always complete).
    pub fn set_top_n(&mut self, n: usize) {
        self.top_n = n.max(1);
    }

    /// Whether anything was recorded (drives conditional JSON emission).
    #[must_use]
    pub fn has_samples(&self) -> bool {
        self.pcs.len() > 0 || self.sites.len() > 0
    }

    /// Total cycles charged so far; equals the run's cycle count at the
    /// end of a run (the full-attribution invariant).
    #[must_use]
    pub fn charged_cycles(&self) -> u64 {
        self.charged_cycles
    }

    /// Charges `gap` cycles to `pc` without a retirement (fault flushes,
    /// end-of-run residue via [`GuestProfile::charge_tail`]).
    #[inline]
    pub fn charge_cycles(&mut self, pc: u64, gap: u64) {
        if !self.enabled {
            return;
        }
        self.pcs.entry_mut(pc).cycles += gap;
        self.charged_cycles += gap;
        self.last_pc = pc;
    }

    /// Charges one retirement of `pc` closing a `gap`-cycle
    /// retire-to-retire window.
    #[inline]
    pub fn charge_retire(&mut self, pc: u64, gap: u64) {
        if !self.enabled {
            return;
        }
        let entry = self.pcs.entry_mut(pc);
        entry.retired += 1;
        entry.cycles += gap;
        self.charged_cycles += gap;
        self.last_pc = pc;
    }

    /// Charges unattributed trailing cycles to the last charged PC.
    #[inline]
    pub fn charge_tail(&mut self, gap: u64) {
        if !self.enabled || gap == 0 {
            return;
        }
        self.pcs.entry_mut(self.last_pc).cycles += gap;
        self.charged_cycles += gap;
    }

    /// Charges `slots` stalled rename slots of cause index `cause` to
    /// the stalling PC (the instruction at the head of the frontend
    /// queue, or 0 when the frontend is empty).
    #[inline]
    pub fn charge_rename_stall(&mut self, pc: u64, cause: usize, slots: u64) {
        if !self.enabled {
            return;
        }
        debug_assert!(cause < MAX_STALL_CAUSES, "stall cause {cause} out of range");
        self.pcs.entry_mut(pc).stall_slots[cause] += slots;
    }

    /// Charges one squash batch to its triggering PC.
    #[inline]
    pub fn charge_squash_trigger(&mut self, pc: u64) {
        if !self.enabled {
            return;
        }
        self.pcs.entry_mut(pc).squash_triggers += 1;
    }

    /// Charges one load replay to the replaying load's PC.
    #[inline]
    pub fn charge_load_replay(&mut self, pc: u64) {
        if !self.enabled {
            return;
        }
        self.pcs.entry_mut(pc).load_replays += 1;
    }

    /// Records a WRPKRU entering `ROB_pkru` at rename.
    #[inline]
    pub fn wrpkru_rename(&mut self, seq: u64, pc: u64) {
        if !self.enabled {
            return;
        }
        self.inflight.push((seq, pc));
    }

    /// Records a WRPKRU retiring: one execution of its site, with
    /// `latency` cycles from rename to retire (its `ROB_pkru` residency).
    #[inline]
    pub fn wrpkru_retire(&mut self, seq: u64, pc: u64, latency: u64) {
        if !self.enabled {
            return;
        }
        let site = self.sites.entry_mut(pc);
        site.executions += 1;
        site.residency += latency;
        site.latency.record(latency);
        self.inflight.retain(|&(s, _)| s != seq);
    }

    /// Records a WRPKRU squashed after `residency` cycles in `ROB_pkru`.
    #[inline]
    pub fn wrpkru_squash(&mut self, seq: u64, pc: u64, residency: u64) {
        if !self.enabled {
            return;
        }
        let site = self.sites.entry_mut(pc);
        site.squashed += 1;
        site.residency += residency;
        self.inflight.retain(|&(s, _)| s != seq);
    }

    /// Records one squash batch whose trigger is `trigger_seq`; if a
    /// WRPKRU older than (or at) the trigger is still in flight, the
    /// youngest such site is charged with having caused speculative
    /// state under it to be thrown away. Call *before* popping victims.
    #[inline]
    pub fn note_squash_batch(&mut self, trigger_seq: u64) {
        if !self.enabled {
            return;
        }
        self.squash_batches += 1;
        if let Some(&(_, pc)) = self.inflight.iter().rev().find(|&&(s, _)| s <= trigger_seq) {
            self.sites.entry_mut(pc).squashes_caused += 1;
            self.squash_batches_with_wrpkru += 1;
        }
    }

    /// The `guest_profile` stats section: the top-`top_n` PCs by charged
    /// cycles (ties broken by ascending PC) and the *complete* WRPKRU
    /// site table sorted by ascending PC. `stall_names` maps stall-cause
    /// indices to the labels used in the per-PC CPI stack (only nonzero
    /// causes are emitted). Output is sorted, so it is deterministic
    /// regardless of hash layout or charge order.
    #[must_use]
    pub fn to_json(&self, stall_names: &[&str]) -> Json {
        let mut pcs: Vec<(u64, &PcEntry)> = self.pcs.iter().collect();
        pcs.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
        let hot: Vec<Json> = pcs
            .iter()
            .take(self.top_n)
            .map(|&(pc, e)| {
                let mut stalls = Json::object();
                for (i, &name) in stall_names.iter().enumerate() {
                    if e.stall_slots[i] > 0 {
                        stalls.set(name, e.stall_slots[i]);
                    }
                }
                Json::object()
                    .with("pc", fmt_pc(pc))
                    .with("retired", e.retired)
                    .with("cycles", e.cycles)
                    .with("squash_triggers", e.squash_triggers)
                    .with("load_replays", e.load_replays)
                    .with("rename_slot_stalls", stalls)
            })
            .collect();

        let mut sites: Vec<(u64, &SiteEntry)> = self.sites.iter().collect();
        sites.sort_by_key(|&(pc, _)| pc);
        let sites: Vec<Json> = sites
            .iter()
            .map(|&(pc, s)| {
                Json::object()
                    .with("pc", fmt_pc(pc))
                    .with("executions", s.executions)
                    .with("squashed", s.squashed)
                    .with("squashes_caused", s.squashes_caused)
                    .with("rob_pkru_residency", s.residency)
                    .with("latency", s.latency.summary_json())
            })
            .collect();

        Json::object()
            .with("top_n", self.top_n as u64)
            .with("pcs_tracked", self.pcs.len() as u64)
            .with("charged_cycles", self.charged_cycles)
            .with("squash_batches", self.squash_batches)
            .with("squash_batches_with_wrpkru", self.squash_batches_with_wrpkru)
            .with("hot_pcs", Json::Arr(hot))
            .with("wrpkru_sites", Json::Arr(sites))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profile_records_nothing() {
        let mut p = GuestProfile::default();
        p.charge_retire(0x1000, 5);
        p.charge_rename_stall(0x1000, 0, 4);
        p.wrpkru_rename(1, 0x1004);
        p.note_squash_batch(3);
        assert!(!p.has_samples());
        assert_eq!(p.charged_cycles(), 0);
    }

    #[test]
    fn cycle_charges_are_totaled() {
        let mut p = GuestProfile::default();
        p.set_enabled(true);
        p.charge_retire(0x1000, 3);
        p.charge_retire(0x1004, 0);
        p.charge_retire(0x1000, 2);
        p.charge_cycles(0x2000, 4);
        p.charge_tail(1);
        assert_eq!(p.charged_cycles(), 10);
        let json = p.to_json(&[]);
        assert_eq!(json.get("charged_cycles").unwrap().as_u64(), Some(10));
        let hot = json.get("hot_pcs").unwrap().as_arr().unwrap();
        // 0x1000 has 5 cycles, 0x2000 has 4 + 1 tail, 0x1004 has 0.
        assert_eq!(hot[0].get("pc").unwrap().as_str(), Some("0x1000"));
        assert_eq!(hot[0].get("cycles").unwrap().as_u64(), Some(5));
        assert_eq!(hot[0].get("retired").unwrap().as_u64(), Some(2));
        assert_eq!(hot[1].get("pc").unwrap().as_str(), Some("0x2000"));
        assert_eq!(hot[1].get("cycles").unwrap().as_u64(), Some(5));
        let total: u64 = hot.iter().map(|e| e.get("cycles").unwrap().as_u64().unwrap()).sum();
        assert_eq!(total, p.charged_cycles());
    }

    #[test]
    fn table_survives_growth_and_output_is_sorted() {
        let mut p = GuestProfile::default();
        p.set_enabled(true);
        p.set_top_n(1024);
        // Enough distinct PCs to force several grows.
        for i in 0..200u64 {
            p.charge_retire(0x1000 + i * 4, i);
        }
        for i in 0..200u64 {
            p.charge_retire(0x1000 + i * 4, 0); // revisit: no new entries
        }
        let json = p.to_json(&[]);
        assert_eq!(json.get("pcs_tracked").unwrap().as_u64(), Some(200));
        let hot = json.get("hot_pcs").unwrap().as_arr().unwrap();
        assert_eq!(hot.len(), 200);
        // Sorted by descending cycles, so the biggest charge leads.
        assert_eq!(hot[0].get("cycles").unwrap().as_u64(), Some(199));
        assert_eq!(hot[0].get("retired").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn wrpkru_sites_account_for_every_outcome() {
        let mut p = GuestProfile::default();
        p.set_enabled(true);
        p.wrpkru_rename(1, 0x1004);
        p.wrpkru_retire(1, 0x1004, 6);
        p.wrpkru_rename(5, 0x1004);
        // Squash triggered by seq 7 while seq 5 is in flight: the site
        // is charged with causing it, then the WRPKRU itself survives.
        p.note_squash_batch(7);
        p.wrpkru_retire(5, 0x1004, 9);
        // A younger WRPKRU squashed by an older trigger: no site is
        // older than the trigger, so no squashes_caused charge.
        p.wrpkru_rename(9, 0x2000);
        p.note_squash_batch(2);
        p.wrpkru_squash(9, 0x2000, 3);
        let json = p.to_json(&[]);
        let sites = json.get("wrpkru_sites").unwrap().as_arr().unwrap();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].get("pc").unwrap().as_str(), Some("0x1004"));
        assert_eq!(sites[0].get("executions").unwrap().as_u64(), Some(2));
        assert_eq!(sites[0].get("squashes_caused").unwrap().as_u64(), Some(1));
        assert_eq!(sites[0].get("rob_pkru_residency").unwrap().as_u64(), Some(15));
        assert_eq!(sites[0].get("latency").unwrap().get("count").unwrap().as_u64(), Some(2));
        assert_eq!(sites[1].get("pc").unwrap().as_str(), Some("0x2000"));
        assert_eq!(sites[1].get("executions").unwrap().as_u64(), Some(0));
        assert_eq!(sites[1].get("squashed").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("squash_batches").unwrap().as_u64(), Some(2));
        assert_eq!(json.get("squash_batches_with_wrpkru").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn stall_stack_uses_supplied_names_and_drops_zeros() {
        let mut p = GuestProfile::default();
        p.set_enabled(true);
        p.charge_rename_stall(0x1000, 0, 4);
        p.charge_rename_stall(0x1000, 2, 1);
        p.charge_cycles(0x1000, 1);
        let json = p.to_json(&["rob_full", "iq_full", "frontend_empty"]);
        let stalls = json.get("hot_pcs").unwrap().as_arr().unwrap()[0]
            .get("rename_slot_stalls")
            .unwrap()
            .clone();
        assert_eq!(stalls.get("rob_full").unwrap().as_u64(), Some(4));
        assert_eq!(stalls.get("frontend_empty").unwrap().as_u64(), Some(1));
        assert!(stalls.get("iq_full").is_none(), "zero causes are omitted");
    }

    #[test]
    fn top_n_truncates_but_totals_do_not() {
        let mut p = GuestProfile::default();
        p.set_enabled(true);
        p.set_top_n(2);
        for i in 0..10u64 {
            p.charge_retire(0x1000 + i * 4, 10 - i);
        }
        let json = p.to_json(&[]);
        assert_eq!(json.get("hot_pcs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(json.get("pcs_tracked").unwrap().as_u64(), Some(10));
        assert_eq!(json.get("charged_cycles").unwrap().as_u64(), Some((1..=10).sum()));
    }

    #[test]
    fn fmt_pc_is_the_shared_rendering() {
        assert_eq!(fmt_pc(0x1004), "0x1004");
        assert_eq!(fmt_pc(0), "0x0");
    }
}
