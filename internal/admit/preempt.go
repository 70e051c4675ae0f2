package admit

import (
	"context"
	"maps"
	"slices"
)

// tryPreempt is the eviction retry loop behind Config.Preempt: a
// guaranteed-class arrival that every tier rejected evicts candidate
// BE/nrtPS flows cheapest-first, re-running the full admission attempt
// after each eviction, and keeps the first state that admits. When no
// eviction budget or candidate set admits the arrival, every eviction is
// rolled back and the original rejection stands — a failed preemption
// search leaves the engine bit-identical to a plain rejection.
//
// Only admitLocked calls this, only for f.Class.Guaranteed() arrivals, on
// a serial engine with e.mu held throughout: BE and nrtPS arrivals can
// never trigger it, and victims are always of strictly lower class than the
// arrival (BE/nrtPS < rtPS <= f.Class).
func (e *Engine) tryPreempt(ctx context.Context, f Flow, rejected Decision) (Decision, error) {
	e.stats.PreemptAttempts++
	e.cPreemptAttempt.Inc()
	victims := e.preemptVictims(f)
	if len(victims) == 0 {
		return rejected, nil
	}
	limit := e.cfg.MaxPreempt
	if limit <= 0 || limit > len(victims) {
		limit = len(victims)
	}

	snapAssigns := slices.Clone(e.sched.Assignments)
	snapWin := e.win
	snapGen := e.gen
	snapLo := make([]int, len(e.zones))
	for zi := range e.zones {
		snapLo[zi] = e.zones[zi].lo
	}
	snapDemand := maps.Clone(e.demand)
	snapFlows := maps.Clone(e.flows)
	snapCls := maps.Clone(e.cls)
	restore := func() {
		e.sched.Assignments = snapAssigns
		e.sched.Invalidate()
		e.rebuildOcc()
		e.win = snapWin
		e.gen = snapGen
		for zi := range e.zones {
			e.zones[zi].lo = snapLo[zi]
		}
		e.demand = snapDemand
		e.flows = snapFlows
		e.cls = snapCls
	}

	var evicted []FlowID
	for _, v := range victims[:limit] {
		if err := e.dropFlow(v); err != nil {
			restore()
			return Decision{}, err
		}
		evicted = append(evicted, v.ID)
		dec, _, err := e.decide(ctx, []Flow{f})
		if err != nil {
			restore()
			return Decision{}, err
		}
		if dec.Admitted {
			dec.Preempted = evicted
			e.stats.PreemptAdmits++
			e.stats.PreemptEvicted += uint64(len(evicted))
			e.cPreemptAdmit.Inc()
			e.cPreemptEvict.Add(uint64(len(evicted)))
			return dec, nil
		}
	}
	restore()
	return rejected, nil
}

// preemptVictims returns the eviction candidates for arrival f: admitted
// non-guaranteed flows (BE and nrtPS — guaranteed flows are never victims)
// whose path shares or conflicts with a link of f's path. The one-hop
// conflict filter is a scoping heuristic: the admission became infeasible
// by adding demand on f's links, so relief almost always comes from their
// contention domains; remote evictions are never attempted. Candidates are
// ordered cheapest-first — class ascending (BE before nrtPS), total slots
// ascending, then ID for determinism.
func (e *Engine) preemptVictims(f Flow) []Flow {
	var out []Flow
	for _, v := range e.flows {
		if v.Class.Guaranteed() || !e.conflictRelevant(v, f) {
			continue
		}
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b Flow) int {
		if a.Class != b.Class {
			return int(a.Class) - int(b.Class)
		}
		if sa, sb := totalSlots(a), totalSlots(b); sa != sb {
			return sa - sb
		}
		if a.ID < b.ID {
			return -1
		}
		return 1
	})
	return out
}

func totalSlots(f Flow) int {
	n := 0
	for _, s := range f.Slots {
		n += s
	}
	return n
}

// conflictRelevant reports whether some link of v's path equals or
// conflicts with some link of f's path.
func (e *Engine) conflictRelevant(v, f Flow) bool {
	for _, vl := range v.Path {
		for _, fl := range f.Path {
			if vl == fl || e.cfg.Graph.Conflicts(vl, fl) {
				return true
			}
		}
	}
	return false
}
