//! Li & Xiang (ICCD 2010): reuse each scan flip-flop at most once.
//!
//! Greedy matching: every TSV tries to claim the nearest still-unused scan
//! flip-flop whose fan-in/fan-out cones do not overlap its own and whose
//! reuse is timing-admissible. Unmatched TSVs get dedicated wrapper cells.
//! No wrapper cell ever serves two TSVs — the restriction Agrawal's WCM
//! formulation later lifted.

use prebond3d_dft::{WrapAssignment, WrapPlan, WrapperSource};
use prebond3d_netlist::{cone::ConeSet, GateId};

use crate::thresholds::Thresholds;
use crate::timing_model::{ReuseKind, TimingModel};

/// Build the Li-style plan.
pub fn plan(model: &TimingModel<'_>, thresholds: &Thresholds) -> WrapPlan {
    let die = model.netlist();
    let inbound = die.inbound_tsvs();
    let outbound = die.outbound_tsvs();
    let ffs = die.flip_flops();

    let mut roots: Vec<GateId> = ffs.clone();
    roots.extend(&inbound);
    roots.extend(&outbound);
    let cones = ConeSet::compute(die, &roots);

    let mut used = vec![false; ffs.len()];
    let mut plan = WrapPlan::default();

    let assign = |tsvs: &[GateId], kind: ReuseKind, used: &mut [bool], plan: &mut WrapPlan| {
        for &t in tsvs {
            // Nearest admissible unused FF.
            let mut best: Option<(f64, usize)> = None;
            for (i, &ff) in ffs.iter().enumerate() {
                if used[i] {
                    continue;
                }
                if cones.cones_overlap(ff, t) {
                    continue;
                }
                if !model.reuse_is_safe(ff, t, kind, thresholds) {
                    continue;
                }
                let d = model.distance(ff, t).0;
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, i));
                }
            }
            let (inb, outb) = match kind {
                ReuseKind::Inbound => (vec![t], vec![]),
                ReuseKind::Outbound => (vec![], vec![t]),
            };
            match best {
                Some((_, i)) => {
                    used[i] = true;
                    plan.assignments.push(WrapAssignment {
                        source: WrapperSource::ReusedScanFf(ffs[i]),
                        inbound: inb,
                        outbound: outb,
                    });
                }
                None => plan.assignments.push(WrapAssignment {
                    source: WrapperSource::Dedicated,
                    inbound: inb,
                    outbound: outb,
                }),
            }
        }
    };

    assign(&inbound, ReuseKind::Inbound, &mut used, &mut plan);
    assign(&outbound, ReuseKind::Outbound, &mut used, &mut plan);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_celllib::{Library, Time};
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};
    use prebond3d_sta::{analyze, StaConfig};

    #[test]
    fn li_plan_is_valid_and_single_use() {
        let spec = itc99::circuit("b11").expect("known");
        let die = itc99::generate_die(&spec.dies[1]);
        let placement = place(&die, &PlaceConfig::default(), 1);
        let library = Library::nangate45_like();
        let report = analyze(
            &die,
            &placement,
            &library,
            &StaConfig::with_period(Time(4000.0)),
        );
        let model = TimingModel::new(&die, &placement, &library, &report, &report, false);
        let th = Thresholds::area_optimized(&library);
        let p = plan(&model, &th);
        p.validate(&die).expect("valid");
        // Single TSV per assignment by construction.
        for a in &p.assignments {
            assert_eq!(a.tsv_count(), 1);
        }
        assert!(p.reused_scan_ffs() > 0, "some reuse should happen");
    }
}
