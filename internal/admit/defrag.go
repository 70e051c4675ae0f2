package admit

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/tdma"
	"wimesh/internal/topology"
)

// TryDefrag attempts one solver-driven defragmentation pass: a re-solve of
// the aggregate demand over private persistent models, off the decision
// path, looking for a schedule strictly shorter than the incumbent window.
// A candidate is validated against the full conflict graph and the demand
// snapshot, then swapped into the live schedule atomically — but only if the
// schedule has not changed since the snapshot (any admit, release, compaction
// or defrag in between bumps the generation counter and the stale candidate
// is discarded). Returns the number of window slots won (0 = no win: the
// incumbent was already minimal, the solve ran out of budget, or the
// schedule moved underneath it).
//
// TryDefrag is safe to run concurrently with admissions; passes themselves
// serialize on an internal lock. Unlike first-fit compaction, which only
// slides blocks earlier in their current order, the re-solve may reorder
// blocks arbitrarily and so recovers fragmentation compaction cannot.
func (e *Engine) TryDefrag(ctx context.Context) (int, error) {
	e.dfMu.Lock()
	defer e.dfMu.Unlock()

	e.mu.Lock()
	gen0 := e.gen
	win0 := e.win
	demand := maps.Clone(e.demand)
	// Class totals snapshotted with the demand: a classed re-pack must keep
	// every link's guaranteed prefixes covered by their deadlines, and the
	// gen check below discards the candidate if either snapshot went stale.
	var clsSnap map[topology.LinkID][2]int
	if e.classed() {
		clsSnap = maps.Clone(e.cls)
	}
	e.mu.Unlock()
	if win0 <= 1 || len(demand) == 0 {
		return 0, nil
	}

	if e.dfZones == nil {
		e.dfZones = make([]zoneModel, len(e.zones))
	}
	opts := e.cfg.MILP
	if ctx != nil {
		opts.Interrupt = ctx.Done()
	}
	// Re-solve every demand-carrying zone strictly below the incumbent
	// window, then first-fit the union into a scratch occupancy under the
	// same limit: an infeasible zone, a blown budget or a placement failure
	// means no provable win.
	full := &schedule.Problem{Graph: e.cfg.Graph, Demand: demand, FrameSlots: e.cfg.Frame.DataSlots,
		StartCap: e.capsFor(clsSnap)}
	var blocks []tdma.Assignment
	for zi := range e.dfZones {
		if !slices.ContainsFunc(e.zones[zi].links, func(l topology.LinkID) bool { return demand[l] > 0 }) {
			continue
		}
		zp := partition.ZoneProblem(full, e.dec, zi)
		zp.StartCap = full.StartCap
		if e.packsGreedily(zp) {
			gs, err := schedule.Greedy(zp, e.cfg.Frame)
			if err != nil {
				return 0, nil
			}
			blocks = append(blocks, gs.Assignments...)
			continue
		}
		inc, _, err := e.dfZones[zi].model(e.cfg.Graph, e.cfg.Frame, zp.Demand)
		if err != nil {
			return 0, err
		}
		_, zs, _, _, err := inc.MinSlots(zp, 0, 0, win0-1, opts)
		if errors.Is(err, schedule.ErrInfeasible) || errors.Is(err, milp.ErrLimit) {
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		blocks = append(blocks, zs.Assignments...)
	}
	cand, win, ok := e.scratchFit(blocks, win0-1)
	if !ok {
		return 0, nil
	}

	// Validate the candidate off-line before it can touch the live schedule:
	// conflict-free under the full graph, and carrying exactly the snapshot
	// demand.
	tmp := &tdma.Schedule{Config: e.cfg.Frame}
	if err := tmp.SetAssignments(cand); err != nil {
		return 0, err
	}
	if err := tmp.Validate(e.cfg.Graph); err != nil {
		return 0, fmt.Errorf("admit: defrag candidate invalid: %w", err)
	}
	slots := make(map[topology.LinkID]int, len(demand))
	for _, a := range cand {
		slots[a.Link] += a.Length
	}
	for l, d := range demand {
		if slots[l] != d {
			return 0, fmt.Errorf("admit: defrag candidate carries %d slots on link %d, demand %d",
				slots[l], l, d)
		}
	}
	for l, n := range slots {
		if demand[l] != n {
			return 0, fmt.Errorf("admit: defrag candidate carries %d slots on link %d, demand %d",
				n, l, demand[l])
		}
	}
	if clsSnap != nil {
		// Deadline coverage check: the zone solves respect the caps, and a
		// single zone's first-fit keeps them, but a cross-zone scratchFit
		// does not track them, so a candidate that uncovers a guaranteed
		// prefix is simply not a win.
		covBy := func(l topology.LinkID, deadline int) int {
			n := 0
			for _, a := range cand {
				if a.Link != l || a.Start >= deadline {
					continue
				}
				n += min(a.End(), deadline) - a.Start
			}
			return n
		}
		for l, v := range clsSnap {
			if D1 := e.cfg.UGSDeadline; D1 > 0 && v[0] > 0 && covBy(l, D1) < v[0] {
				return 0, nil
			}
			if D2 := e.cfg.RtPSWindow; D2 > 0 && v[1] > 0 && covBy(l, D2) < v[0]+v[1] {
				return 0, nil
			}
		}
	}
	if win >= win0 {
		return 0, nil
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gen != gen0 {
		// The schedule moved while the re-pack solved: the candidate no
		// longer matches the live demand. Drop it; the next pass re-snapshots.
		return 0, nil
	}
	if err := e.sched.SetAssignments(cand); err != nil {
		return 0, err
	}
	e.rebuildOcc()
	e.win = win
	e.gen++
	won := win0 - win
	e.stats.Defrags++
	e.stats.DefragSlots += uint64(won)
	e.cDefrag.Inc()
	e.cDefragSlots.Add(uint64(won))
	return won, nil
}

// scratchFit first-fit places the blocks (sorted ascending by start, length
// descending, link) against a private occupancy index bounded by limit,
// returning the placements and their makespan, or ok=false when any block
// does not fit. It reads only the immutable conflict graph, so it runs
// without any engine lock.
func (e *Engine) scratchFit(blocks []tdma.Assignment, limit int) ([]tdma.Assignment, int, bool) {
	slices.SortFunc(blocks, byStart)
	occ := make([][][2]int, len(e.occ))
	out := make([]tdma.Assignment, 0, len(blocks))
	win := 0
	for _, b := range blocks {
		var bs [][2]int
		bs = append(bs, occ[b.Link]...)
		e.cfg.Graph.VisitNeighbors(b.Link, func(nb topology.LinkID) bool {
			bs = append(bs, occ[nb]...)
			return true
		})
		slices.SortFunc(bs, func(x, y [2]int) int { return x[0] - y[0] })
		cur := 0
		for _, iv := range bs {
			if iv[0]-cur >= b.Length {
				break
			}
			cur = max(cur, iv[1])
		}
		if cur+b.Length > limit {
			return nil, 0, false
		}
		ivs := occ[b.Link]
		i, _ := slices.BinarySearchFunc(ivs, cur, func(iv [2]int, s int) int { return iv[0] - s })
		occ[b.Link] = slices.Insert(ivs, i, [2]int{cur, cur + b.Length})
		out = append(out, tdma.Assignment{Link: b.Link, Start: cur, Length: b.Length})
		win = max(win, cur+b.Length)
	}
	return out, win, true
}
