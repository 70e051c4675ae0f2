package admit

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// zoneModel is one zone's persistent solver state: the zone's links, the
// grow-only support of links that ever carried demand (a dense city zone
// can hold tens of thousands of conflicting link pairs, so a model over all
// zone links would be intractable; the links that ever carry demand are
// few), the incremental model over that support, and lo, a proven lower
// bound on the zone's minimum window. lo is the window of the zone's last
// exact solve, written when that decision commits (0 when the solve was
// satisficed or greedy) and zeroed when any of the zone's links loses
// demand. In between, the zone's demand only grows, so lo stays sound.
type zoneModel struct {
	links   []topology.LinkID
	support []topology.LinkID
	inc     *schedule.Incremental
	lo      int
}

// model returns the zone's incremental model, first rebuilding it over a
// widened support when it does not cover the demand (cold=true). This is
// the package's only model construction site.
func (z *zoneModel) model(g *conflict.Graph, frame tdma.FrameConfig, demand map[topology.LinkID]int) (inc *schedule.Incremental, cold bool, err error) {
	if z.inc != nil && z.inc.Supports(demand) {
		return z.inc, false, nil
	}
	support := z.support
	for l, d := range demand {
		if d > 0 && !slices.Contains(support, l) {
			support = append(support, l)
		}
	}
	if inc, err = schedule.NewIncremental(g, support, frame); err != nil {
		return nil, false, err
	}
	slices.Sort(support)
	z.inc, z.support = inc, support
	return inc, true, nil
}

// Lock policy. A decision or release holds its decision locks for the whole
// call (lock): e.mu on a serial engine; on a sharded engine the locks of the
// zones its links belong to, with e.mu taken only around the phases that
// read or write the shared schedule (stitchLock). The hierarchy is strictly
// outside-in,
//
//	zoneMu[i] < zoneMu[j] for i < j  <  e.mu
//
// zone locks are taken in the ascending order partition.ZoneSet yields, and
// e.mu is never held while acquiring a zone lock, so lock-order cycles
// cannot form. The zone locks freeze the demands and class totals of their
// zones' links and guard their zoneModels; e.mu guards the live schedule,
// the occupancy index, the flow table and the tallies.

// lock takes the decision locks for a call touching links and returns what
// unlock needs to release them: the zones locked, nil on a serial engine.
// Zone lock acquisition is timed into admit.lock_wait_us.
func (e *Engine) lock(links []topology.LinkID) (zones []int) {
	if !e.sharded {
		e.mu.Lock()
		return nil
	}
	zones = e.dec.ZoneSet(links)
	start := time.Now()
	for _, zi := range zones {
		e.zoneMu[zi].Lock()
	}
	e.hLockWait.Observe(float64(time.Since(start).Microseconds()))
	return zones
}

// unlock releases the decision locks lock took.
func (e *Engine) unlock(zones []int) {
	if !e.sharded {
		e.mu.Unlock()
		return
	}
	for i := len(zones) - 1; i >= 0; i-- {
		e.zoneMu[zones[i]].Unlock()
	}
}

// stitchLock and stitchUnlock bracket the shared-state phases of a sharded
// call; a serial engine's caller already holds e.mu, so they are no-ops.
func (e *Engine) stitchLock() {
	if e.sharded {
		e.mu.Lock()
	}
}

func (e *Engine) stitchUnlock() {
	if e.sharded {
		e.mu.Unlock()
	}
}

// HomeZone returns the zone of the flow's first path link: the dispatch key
// ServeConcurrent shards arrivals by, so all events of one flow land on one
// worker in order. Every link is in zone 0 of an unzoned engine.
func (e *Engine) HomeZone(f Flow) int {
	if len(f.Path) == 0 {
		return 0
	}
	return max(e.dec.ZoneOf(f.Path[0]), 0)
}

// decide runs one admission decision for flows — a single arrival, or a
// joint batch whose members all share the verdict — under the caller's
// decision locks, in three phases:
//
//   - A, under e.mu: duplicate checks, the structural screens, the
//     first-fit fastpath, a snapshot of the solver inputs, and the
//     reservation of the flow IDs (e.pending).
//   - B, under the decision locks alone: the re-solve of every zone the
//     demand delta touches — the expensive part, running concurrently with
//     decisions in other zones on a sharded engine.
//   - C, under e.mu again: the stitch of the zones' blocks into the live
//     schedule (re-checked against the live occupancy, so halo links stay
//     safe) and the commit. A serial engine, which holds e.mu throughout,
//     stitches each zone right after its solve instead, so a stitch
//     failure skips the remaining zones' solves.
//
// An admission is committed, with its tier tallies, before decide returns;
// the admit/reject tallies and the latency are the caller's (finish), so
// the preemption loop can re-run a decision after evictions. For a joint
// batch, ok=false with a nil error means the joint attempt proved nothing
// and the caller must decide the flows one by one: a joint failure must not
// reject a call a sequential run would admit. A single flow's decision is
// always ok.
func (e *Engine) decide(ctx context.Context, flows []Flow) (Decision, bool, error) {
	joint := len(flows) > 1
	delta := make(map[topology.LinkID]int)
	for _, f := range flows {
		for i, l := range f.Path {
			delta[l] += f.Slots[i]
		}
	}

	e.stitchLock()
	for _, f := range flows {
		if _, dup := e.flows[f.ID]; dup || e.pending[f.ID] {
			e.stitchUnlock()
			if joint {
				return Decision{}, false, nil
			}
			return Decision{}, false, fmt.Errorf("%w: flow %s already admitted", ErrBadFlow, f.ID)
		}
	}
	newCls := e.clsAfter(flows...)
	for l, d := range delta {
		if e.demand[l]+d > e.maxWin || newCls != nil && e.clsOver(newCls[l][0], newCls[l][1]) {
			// No window within the cap can carry the link's demand, or its
			// guaranteed-class slots cannot all complete by their deadlines:
			// structurally impossible, no solver needed.
			e.stitchUnlock()
			return Decision{Tier: TierNone}, !joint, nil
		}
	}
	if placed := e.tryFastpath(delta, newCls); placed != nil {
		defer e.stitchUnlock()
		for _, a := range placed {
			if err := e.sched.Add(a); err != nil {
				return Decision{}, false, err
			}
			e.occAdd(a.Link, a.Start, a.End())
		}
		return e.commit(flows, delta, Decision{Admitted: true, Tier: TierFast, Window: e.win}), true, nil
	}
	newDemand := maps.Clone(e.demand)
	links := make([]topology.LinkID, 0, len(delta))
	for l, d := range delta {
		newDemand[l] += d
		links = append(links, l)
	}
	zones := e.dec.ZoneSet(links)
	hints := make([]int, len(zones))
	for i, zi := range zones {
		for _, l := range e.zones[zi].links {
			for _, iv := range e.occ[l] {
				hints[i] = max(hints[i], iv[1])
			}
		}
	}
	for _, f := range flows {
		e.pending[f.ID] = true
	}
	e.stitchUnlock()

	opts := e.cfg.MILP
	if ctx != nil {
		opts.Interrupt = ctx.Done()
	}
	full := &schedule.Problem{Graph: e.cfg.Graph, Demand: newDemand, FrameSlots: e.cfg.Frame.DataSlots,
		StartCap: e.capsFor(newCls)}
	tier := TierWarm
	blocks := make([][]tdma.Assignment, len(zones))
	exact := make([]int, len(zones))
	var greedy, sat, solved, pivots, stitched int
	var serr error
	fits := true
	var undo []tdma.Assignment
	undoWin := 0
	// stitchTo swaps the solved zones up to n into the live schedule, first
	// saving it for the rollback of a failed decision. Needs e.mu.
	stitchTo := func(n int) (err error) {
		if stitched == 0 {
			undo, undoWin = slices.Clone(e.sched.Assignments), e.win
		}
		for ; fits && err == nil && stitched < n; stitched++ {
			fits, err = e.stitchZone(zones[stitched], blocks[stitched], newCls)
		}
		return err
	}
	for i, zi := range zones {
		zp := partition.ZoneProblem(full, e.dec, zi)
		zp.StartCap = full.StartCap
		if e.packsGreedily(zp) {
			gs, err := schedule.Greedy(zp, e.cfg.Frame)
			if err != nil {
				serr = err
				break
			}
			blocks[i] = gs.Assignments
			greedy++
		} else {
			z := &e.zones[zi]
			inc, cold, err := z.model(e.cfg.Graph, e.cfg.Frame, zp.Demand)
			if err != nil {
				serr = err
				break
			}
			if cold {
				tier = TierCold
			}
			win, zs, zsolved, zpiv, zsat, err := e.minSlotsServing(ctx, inc, zp, hints[i], z.lo, opts)
			if err != nil {
				serr = err
				break
			}
			if zsat {
				sat++
			} else {
				exact[i] = win
			}
			blocks[i] = zs.Assignments
			solved += zsolved
			pivots += zpiv
		}
		if !e.sharded {
			if serr = stitchTo(i + 1); serr != nil || !fits {
				break
			}
		}
	}

	e.stitchLock()
	defer e.stitchUnlock()
	for _, f := range flows {
		delete(e.pending, f.ID)
	}
	e.stats.ZoneGreedy += uint64(greedy)
	e.cZoneGreedy.Add(uint64(greedy))
	e.stats.Satisficed += uint64(sat)
	e.cSatisfice.Add(uint64(sat))
	if serr == nil && fits {
		serr = stitchTo(len(zones))
	}
	if (serr != nil || !fits) && stitched > 0 {
		e.sched.Assignments = undo
		e.sched.Invalidate()
		e.win = undoWin
		e.rebuildOcc()
	}
	if serr != nil {
		_, budget, out := e.classifySolverErr(ctx, serr)
		if joint {
			// The joint model is bigger than any member's; a blown budget
			// there says nothing about the individual solves.
			if out == nil || errors.Is(serr, milp.ErrLimit) && (ctx == nil || ctx.Err() == nil) {
				return Decision{}, false, nil
			}
			return Decision{}, false, out
		}
		if out != nil {
			return Decision{}, false, out
		}
		return Decision{Tier: tier, Window: e.win, budget: budget}, true, nil
	}
	if !fits {
		// A cross-zone packing failure (or a class deadline the stitch
		// cannot keep) is a conservative rejection, like the partitioned
		// planner's stitch failures.
		return Decision{Tier: tier, Window: e.win}, !joint, nil
	}
	e.win = makespanOf(e.sched)
	for i, zi := range zones {
		e.zones[zi].lo = exact[i]
	}
	return e.commit(flows, delta, Decision{Admitted: true, Tier: tier, Window: e.win, Solved: solved, Pivots: pivots}), true, nil
}

// packsGreedily reports whether a zone subproblem is past the zone ILP size
// gate and falls back to greedy packing. The unzoned engine's gate is
// math.MaxInt: it never packs greedily and skips counting the pairs.
func (e *Engine) packsGreedily(zp *schedule.Problem) bool {
	return e.maxPairs < math.MaxInt && partition.ActivePairs(zp) > e.maxPairs
}

// stitchZone swaps zone zi's allocation for its freshly solved blocks. A
// single-zone engine has nothing to stitch against: the solver's schedule
// is valid as it stands and becomes the live one. Otherwise the zone's old
// blocks are dropped and the new ones first-fit in ascending start order
// (the solver's layout is the placement hint) against the live occupancy,
// so halo links stay safe, within each link's class-deadline limit; fits is
// false when a block does not fit, and the caller rolls the schedule back.
// Called with e.mu held.
func (e *Engine) stitchZone(zi int, blocks []tdma.Assignment, cls map[topology.LinkID][2]int) (fits bool, err error) {
	if len(e.zones) == 1 {
		if err := e.sched.SetAssignments(blocks); err != nil {
			return false, err
		}
		e.rebuildOcc()
		return true, nil
	}
	e.sched.Assignments = slices.DeleteFunc(e.sched.Assignments, func(a tdma.Assignment) bool {
		return e.dec.ZoneOf(a.Link) == zi
	})
	e.sched.Invalidate()
	for _, l := range e.zones[zi].links {
		e.occ[l] = e.occ[l][:0]
	}
	slices.SortFunc(blocks, byStart)
	placed := make(map[topology.LinkID]int, len(blocks))
	for _, b := range blocks {
		s := e.firstFit(b.Link, b.Length, e.stitchLimit(b.Link, placed[b.Link], b.Length, cls), nil)
		if s < 0 {
			return false, nil
		}
		if err := e.sched.Add(tdma.Assignment{Link: b.Link, Start: s, Length: b.Length}); err != nil {
			return false, err
		}
		e.occAdd(b.Link, s, s+b.Length)
		placed[b.Link] += b.Length
	}
	return true, nil
}

// commit records an admitted decision's flows — aggregate demand, flow
// table, class totals, generation — and books its tier tallies once per
// member. The caller has placed the blocks. Called with e.mu held.
func (e *Engine) commit(flows []Flow, delta map[topology.LinkID]int, dec Decision) Decision {
	for l, d := range delta {
		e.demand[l] += d
	}
	for _, f := range flows {
		e.flows[f.ID] = f
		e.classAdd(f, 1)
	}
	e.gen++
	k := uint64(len(flows))
	switch dec.Tier {
	case TierFast:
		e.stats.Fast += k
		e.cFast.Add(k)
	case TierWarm:
		e.stats.Warm += k
		e.stats.WarmPivots += uint64(dec.Pivots)
		e.cWarm.Add(k)
		e.cWarmPivots.Add(uint64(dec.Pivots))
	case TierCold:
		e.stats.Cold += k
		e.cCold.Add(k)
	}
	if k > 1 {
		e.stats.Batched += k
	}
	return dec
}

// classifySolverErr folds a solver failure into the engine's error contract
// without touching engine state: infeasibility is a rejection (nil error),
// an interrupt surfaces the context's error, budget exhaustion rejects
// conservatively when configured (budget=true so the caller can count it),
// anything else passes through as out.
func (e *Engine) classifySolverErr(ctx context.Context, err error) (reject, budget bool, out error) {
	if errors.Is(err, schedule.ErrInfeasible) {
		return true, false, nil
	}
	if ctx != nil && ctx.Err() != nil && errors.Is(err, milp.ErrLimit) {
		return false, false, ctx.Err()
	}
	if e.cfg.BudgetRejects && errors.Is(err, milp.ErrLimit) {
		return true, true, nil
	}
	return false, false, err
}

// minSlotsServing wraps Incremental.MinSlots with the satisficing fallback
// of Config.BudgetRejects: when the exact search blows its budget under a
// live context, probe the window cap once — lo = hint = maxWin makes it a
// single feasibility check — and return that schedule with satisficed=true
// (the window is then the probe schedule's makespan, feasible but not proven
// minimal). It touches no engine state beyond the model it is handed, so a
// sharded engine runs it under a zone lock alone.
func (e *Engine) minSlotsServing(ctx context.Context, inc *schedule.Incremental, p *schedule.Problem, hint, lo int, opts milp.Options) (win int, s *tdma.Schedule, solved, pivots int, satisficed bool, err error) {
	win, s, solved, pivots, err = inc.MinSlots(p, hint, lo, e.maxWin, opts)
	if err == nil || !e.cfg.BudgetRejects || !errors.Is(err, milp.ErrLimit) ||
		(ctx != nil && ctx.Err() != nil) {
		return win, s, solved, pivots, false, err
	}
	_, s2, solved2, piv2, err2 := inc.MinSlots(p, e.maxWin, e.maxWin, e.maxWin, opts)
	solved += solved2
	pivots += piv2
	if err2 != nil {
		// ErrInfeasible here is still exact — nothing fits within the cap —
		// and a second ErrLimit becomes the conservative budget rejection.
		return 0, nil, solved, pivots, false, err2
	}
	return makespanOf(s2), s2, solved, pivots, true, nil
}
