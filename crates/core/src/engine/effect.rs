//! The order key and merge of the device → hub effect stream.
//!
//! The device phase stamps every boundary effect with an [`EffectKey`]
//! and hands the hub one sorted batch per epoch. Effects can be
//! future-dated past their epoch (`finish + send_cost`), so the hub keeps
//! the not-yet-due ones as a sorted leftover run and folds each fresh
//! batch into it with [`merge_into`]: one linear merge per epoch instead
//! of a per-event heap handoff.

use hivemind_sim::time::SimTime;

/// The effect order key: `(time, lane, seq)`.
///
/// The lane is the producing device and `seq` a per-device monotone
/// counter, so keys are unique and ties at one instant keep each device's
/// causal emission order even when an earlier emission is future-dated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EffectKey {
    /// The virtual instant the effect applies at.
    pub at: SimTime,
    /// Producer identity (device id).
    pub lane: u32,
    /// Per-lane emission counter.
    pub seq: u64,
}

impl EffectKey {
    /// Builds a key.
    pub fn new(at: SimTime, lane: u32, seq: u64) -> EffectKey {
        EffectKey { at, lane, seq }
    }
}

/// Merges two sorted runs of keyed items — the leftover run and a fresh
/// batch — appending them to `out` in `(time, lane, seq)` order.
///
/// Both runs must be sorted by key and keys must be unique across them,
/// so the output equals a global sort of their union. The sources are
/// copied, not consumed, and `out` keeps its capacity, so a caller that
/// swaps buffers each epoch stays allocation-free in steady state.
pub fn merge_into<T: Copy>(
    mut a: &[(EffectKey, T)],
    mut b: &[(EffectKey, T)],
    out: &mut Vec<(EffectKey, T)>,
) {
    out.reserve(a.len() + b.len());
    loop {
        match (a.first(), b.first()) {
            (Some(&(ka, _)), Some(&(kb, _))) => {
                if ka <= kb {
                    out.push(a[0]);
                    a = &a[1..];
                } else {
                    out.push(b[0]);
                    b = &b[1..];
                }
            }
            (Some(_), None) => {
                out.extend_from_slice(a);
                break;
            }
            (None, _) => {
                out.extend_from_slice(b);
                break;
            }
        }
    }
    debug_assert!(
        out.windows(2).all(|w| w[0].0 < w[1].0),
        "merged run sorted by unique keys"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_into_appends_after_existing_prefix() {
        let key = |ns: u64| EffectKey::new(SimTime::from_nanos(ns), 0, ns);
        let mut out = vec![(key(1), 10u64)];
        let a = [(key(2), 20u64), (key(5), 50)];
        let b = [(key(3), 30u64)];
        merge_into(&a, &b, &mut out);
        assert_eq!(
            out,
            vec![(key(1), 10), (key(2), 20), (key(3), 30), (key(5), 50)]
        );
    }

    #[test]
    fn merge_into_handles_empty_runs() {
        let key = |ns: u64| EffectKey::new(SimTime::from_nanos(ns), 0, ns);
        let mut out: Vec<(EffectKey, u8)> = Vec::new();
        merge_into(&[], &[], &mut out);
        assert!(out.is_empty());
        merge_into(&[(key(1), 1)], &[], &mut out);
        merge_into(&[], &[(key(2), 2)], &mut out);
        assert_eq!(out, vec![(key(1), 1), (key(2), 2)]);
    }
}
