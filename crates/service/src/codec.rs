//! Binary codecs for the solver-state snapshot types of the lower crates:
//! [`SimplexSnapshot`] (bcast-lp), [`SessionSnapshot`] (bcast-core), and
//! [`ScheduleParts`] (bcast-sched).
//!
//! The lower crates expose their snapshots as plain public data and stay
//! codec-agnostic (the workspace's `serde` is a no-op stand-in); the
//! on-disk encoding lives here, next to the only consumer. All `f64`s
//! travel as IEEE-754 bit patterns, so a round trip is bit-exact.
//!
//! Each snapshot type holds what its owner rebuilds from, nothing it can
//! derive: a master LP is its stored rows plus a basis layout (the basis,
//! the enterable flags, and each row's slack and artificial), a cut its
//! node side, and a schedule the trees and rounding its timetable is
//! assembled from. The rounds, start times, lags and port busy times are
//! not encoded; `PeriodicSchedule::from_parts` re-assembles them.
//!
//! Decoders are *total* — corrupt bytes produce [`WireError`], never a
//! panic — but deliberately shallow: structural validation (index ranges,
//! length agreement, finiteness) is the job of the owning crates'
//! `restore` functions, which these decoders feed.

use crate::wire::{Reader, WireError, Writer};
use bcast_core::{CutGenOptions, CutSnapshot, NodeCutSet, ScreenSnapshot, SessionSnapshot};
use bcast_lp::{
    ConstraintOp, FactSnapshot, IncrementalStats, Sense, SimplexOptions, SimplexSnapshot,
    SnapshotRow, VarId,
};
use bcast_net::EdgeId;
use bcast_sched::{RoundedLoads, ScheduleParts};

// ---- small enums -------------------------------------------------------

fn put_sense(w: &mut Writer, sense: Sense) {
    w.put_u8(match sense {
        Sense::Maximize => 0,
        Sense::Minimize => 1,
    });
}

fn get_sense(r: &mut Reader) -> Result<Sense, WireError> {
    match r.get_u8()? {
        0 => Ok(Sense::Maximize),
        1 => Ok(Sense::Minimize),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_op(w: &mut Writer, op: ConstraintOp) {
    w.put_u8(match op {
        ConstraintOp::Le => 0,
        ConstraintOp::Ge => 1,
        ConstraintOp::Eq => 2,
    });
}

fn get_op(r: &mut Reader) -> Result<ConstraintOp, WireError> {
    match r.get_u8()? {
        0 => Ok(ConstraintOp::Le),
        1 => Ok(ConstraintOp::Ge),
        2 => Ok(ConstraintOp::Eq),
        t => Err(WireError::BadTag(t)),
    }
}

// ---- bcast-lp: SimplexSnapshot -----------------------------------------

fn put_simplex_options(w: &mut Writer, o: &SimplexOptions) {
    w.put_usize(o.max_iterations);
    w.put_usize(o.refactor_interval);
}

fn get_simplex_options(r: &mut Reader) -> Result<SimplexOptions, WireError> {
    Ok(SimplexOptions {
        max_iterations: r.get_usize()?,
        refactor_interval: r.get_usize()?,
    })
}

fn put_snapshot_row(w: &mut Writer, row: &SnapshotRow) {
    w.put_seq(&row.terms, |w, &(var, coeff)| {
        w.put_usize(var.index());
        w.put_f64(coeff);
    });
    put_op(w, row.op);
    w.put_f64(row.rhs);
}

fn get_snapshot_row(r: &mut Reader) -> Result<SnapshotRow, WireError> {
    Ok(SnapshotRow {
        terms: r.get_seq(16, |r| Ok((VarId(r.get_usize()?), r.get_f64()?)))?,
        op: get_op(r)?,
        rhs: r.get_f64()?,
    })
}

fn put_fact(w: &mut Writer, f: &FactSnapshot) {
    w.put_usize(f.cols);
    w.put_seq(&f.basis, |w, &b| w.put_usize(b));
    w.put_seq(&f.allowed, |w, &a| w.put_bool(a));
    w.put_seq(&f.slack_col, |w, s| w.put_opt_usize(s));
    w.put_seq(&f.art_col, |w, a| w.put_opt_usize(a));
}

fn get_fact(r: &mut Reader) -> Result<FactSnapshot, WireError> {
    Ok(FactSnapshot {
        cols: r.get_usize()?,
        basis: r.get_seq(8, |r| r.get_usize())?,
        allowed: r.get_seq(1, |r| r.get_bool())?,
        slack_col: r.get_seq(1, |r| r.get_opt_usize())?,
        art_col: r.get_seq(1, |r| r.get_opt_usize())?,
    })
}

fn put_incremental_stats(w: &mut Writer, s: &IncrementalStats) {
    w.put_usize(s.cold_solves);
    w.put_usize(s.warm_solves);
    w.put_usize(s.refactorizations);
    w.put_usize(s.total_pivots);
    w.put_usize(s.dual_pivots);
    w.put_usize(s.rows_added);
    w.put_usize(s.rows_deleted);
    w.put_usize(s.rows_updated);
    w.put_usize(s.cols_added);
    w.put_usize(s.cols_deleted);
}

fn get_incremental_stats(r: &mut Reader) -> Result<IncrementalStats, WireError> {
    Ok(IncrementalStats {
        cold_solves: r.get_usize()?,
        warm_solves: r.get_usize()?,
        refactorizations: r.get_usize()?,
        total_pivots: r.get_usize()?,
        dual_pivots: r.get_usize()?,
        rows_added: r.get_usize()?,
        rows_deleted: r.get_usize()?,
        rows_updated: r.get_usize()?,
        cols_added: r.get_usize()?,
        cols_deleted: r.get_usize()?,
    })
}

/// Encodes a [`SimplexSnapshot`].
pub fn put_simplex_snapshot(w: &mut Writer, s: &SimplexSnapshot) {
    put_simplex_options(w, &s.options);
    put_sense(w, s.sense);
    w.put_seq(&s.objective, |w, &c| w.put_f64(c));
    w.put_seq(&s.rows, |w, row| w.put_opt(row, put_snapshot_row));
    w.put_seq(&s.cols_live, |w, &l| w.put_bool(l));
    w.put_usize(s.base_rows);
    put_incremental_stats(w, &s.stats);
    w.put_opt(&s.fact, put_fact);
}

/// Decodes a [`SimplexSnapshot`].
pub fn get_simplex_snapshot(r: &mut Reader) -> Result<SimplexSnapshot, WireError> {
    Ok(SimplexSnapshot {
        options: get_simplex_options(r)?,
        sense: get_sense(r)?,
        objective: r.get_seq(8, |r| r.get_f64())?,
        rows: r.get_seq(1, |r| r.get_opt(get_snapshot_row))?,
        cols_live: r.get_seq(1, |r| r.get_bool())?,
        base_rows: r.get_usize()?,
        stats: get_incremental_stats(r)?,
        fact: r.get_opt(get_fact)?,
    })
}

// ---- bcast-core: SessionSnapshot ---------------------------------------

fn put_cut_gen_options(w: &mut Writer, o: &CutGenOptions) {
    w.put_opt_usize(&o.purge_after);
    w.put_seq(&o.seed_cuts, |w, cut| {
        w.put_seq(&cut.source_side, |w, &s| w.put_bool(s))
    });
    w.put_bool(o.warm_start);
    w.put_bool(o.screen_separation);
    w.put_usize(o.separation_threads);
}

fn get_cut_gen_options(r: &mut Reader) -> Result<CutGenOptions, WireError> {
    Ok(CutGenOptions {
        purge_after: r.get_opt_usize()?,
        seed_cuts: r.get_seq(8, |r| {
            Ok(NodeCutSet {
                source_side: r.get_seq(1, |r| r.get_bool())?,
            })
        })?,
        warm_start: r.get_bool()?,
        screen_separation: r.get_bool()?,
        separation_threads: r.get_usize()?,
    })
}

fn put_cut(w: &mut Writer, c: &CutSnapshot) {
    w.put_seq(&c.side, |w, &s| w.put_bool(s));
    w.put_usize(c.non_binding_streak);
    w.put_bool(c.active);
    w.put_opt_usize(&c.row);
}

fn get_cut(r: &mut Reader) -> Result<CutSnapshot, WireError> {
    Ok(CutSnapshot {
        side: r.get_seq(1, |r| r.get_bool())?,
        non_binding_streak: r.get_usize()?,
        active: r.get_bool()?,
        row: r.get_opt_usize()?,
    })
}

fn put_screen(w: &mut Writer, s: &ScreenSnapshot) {
    w.put_bool(s.valid);
    w.put_f64(s.flow);
    w.put_seq(&s.support, |w, &(e, f)| {
        w.put_u32(e);
        w.put_f64(f);
    });
}

fn get_screen(r: &mut Reader) -> Result<ScreenSnapshot, WireError> {
    Ok(ScreenSnapshot {
        valid: r.get_bool()?,
        flow: r.get_f64()?,
        support: r.get_seq(12, |r| Ok((r.get_u32()?, r.get_f64()?)))?,
    })
}

/// Encodes a cut-generation [`SessionSnapshot`].
pub fn put_session_snapshot(w: &mut Writer, s: &SessionSnapshot) {
    put_cut_gen_options(w, &s.options);
    w.put_usize(s.source);
    w.put_f64(s.slice_size);
    w.put_usize(s.nodes);
    w.put_usize(s.edges);
    w.put_usize(s.tp);
    w.put_seq(&s.n_vars, |w, &v| w.put_usize(v));
    w.put_opt(&s.master, put_simplex_snapshot);
    w.put_seq(&s.port_rows, |w, &p| w.put_usize(p));
    w.put_seq(&s.port_keys, |w, &(node, out)| {
        w.put_usize(node);
        w.put_bool(out);
    });
    w.put_seq(&s.cuts, put_cut);
    w.put_usize(s.steps);
    w.put_seq(&s.screen, put_screen);
    w.put_seq(&s.stab_center, |w, &c| w.put_f64(c));
}

/// Decodes a cut-generation [`SessionSnapshot`].
pub fn get_session_snapshot(r: &mut Reader) -> Result<SessionSnapshot, WireError> {
    Ok(SessionSnapshot {
        options: get_cut_gen_options(r)?,
        source: r.get_usize()?,
        slice_size: r.get_f64()?,
        nodes: r.get_usize()?,
        edges: r.get_usize()?,
        tp: r.get_usize()?,
        n_vars: r.get_seq(8, |r| r.get_usize())?,
        master: r.get_opt(get_simplex_snapshot)?,
        port_rows: r.get_seq(8, |r| r.get_usize())?,
        port_keys: r.get_seq(9, |r| Ok((r.get_usize()?, r.get_bool()?)))?,
        cuts: r.get_seq(26, get_cut)?,
        steps: r.get_usize()?,
        screen: r.get_seq(17, get_screen)?,
        stab_center: r.get_seq(8, |r| r.get_f64())?,
    })
}

// ---- bcast-sched: ScheduleParts ----------------------------------------

fn put_rounding(w: &mut Writer, rl: &RoundedLoads) {
    w.put_usize(rl.slices_per_period);
    w.put_seq(&rl.multiplicity, |w, &m| w.put_u32(m));
    w.put_f64(rl.ideal_period);
    w.put_f64(rl.loss_bound);
    w.put_usize(rl.repairs);
    w.put_seq(&rl.dominated, |w, &d| w.put_bool(d));
}

fn get_rounding(r: &mut Reader) -> Result<RoundedLoads, WireError> {
    Ok(RoundedLoads {
        slices_per_period: r.get_usize()?,
        multiplicity: r.get_seq(4, |r| r.get_u32())?,
        ideal_period: r.get_f64()?,
        loss_bound: r.get_f64()?,
        repairs: r.get_usize()?,
        dominated: r.get_seq(1, |r| r.get_bool())?,
    })
}

/// Encodes [`ScheduleParts`].
pub fn put_schedule_parts(w: &mut Writer, p: &ScheduleParts) {
    w.put_usize(p.source);
    w.put_f64(p.slice_size);
    w.put_f64(p.lp_throughput);
    w.put_seq(&p.trees, |w, tree| w.put_seq(tree, |w, &e| w.put_u32(e.0)));
    put_rounding(w, &p.rounding);
}

/// Decodes [`ScheduleParts`].
pub fn get_schedule_parts(r: &mut Reader) -> Result<ScheduleParts, WireError> {
    Ok(ScheduleParts {
        source: r.get_usize()?,
        slice_size: r.get_f64()?,
        lp_throughput: r.get_f64()?,
        trees: r.get_seq(8, |r| r.get_seq(4, |r| Ok(EdgeId(r.get_u32()?))))?,
        rounding: get_rounding(r)?,
    })
}
