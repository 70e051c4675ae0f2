package admit

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"wimesh/internal/milp"
	"wimesh/internal/partition"
	"wimesh/internal/schedule"
	"wimesh/internal/topology"
)

// replayBatched replays a workload through AdmitBatch in groups of up to
// size arrivals, flushing early before each departure so a release never
// overtakes its own arrival. Evicted flows leave the admitted set.
func replayBatched(t *testing.T, e *Engine, w *Workload, size int) {
	t.Helper()
	ctx := context.Background()
	admitted := make(map[FlowID]bool)
	var batch []Flow
	flush := func() {
		if len(batch) == 0 {
			return
		}
		decs, err := e.AdmitBatch(ctx, batch)
		if err != nil {
			t.Fatalf("AdmitBatch: %v", err)
		}
		for i, d := range decs {
			if d.Admitted {
				admitted[batch[i].ID] = true
			}
			for _, id := range d.Preempted {
				delete(admitted, id)
			}
		}
		batch = batch[:0]
	}
	for _, ev := range w.Events {
		if ev.Arrive {
			if batch = append(batch, ev.Flow); len(batch) == size {
				flush()
			}
			continue
		}
		flush()
		if admitted[ev.Flow.ID] {
			if err := e.Release(ev.Flow.ID); err != nil {
				t.Fatalf("release %s: %v", ev.Flow.ID, err)
			}
			delete(admitted, ev.Flow.ID)
		}
	}
	flush()
}

// TestBudgetRejectsAreFinalVerdicts pins the budget-rejection tally to final
// verdicts. With a 3-node solve budget nearly every solve blows up, and
// with no window cap below the frame nearly every rejection is a budget
// one. Yet neither a joint batch attempt that falls back to individual
// decisions nor a guaranteed arrival that preemption then admits is a
// rejection, so Stats.BudgetRejected (and admit.budget_reject) can never
// exceed Stats.Rejected — on the unzoned, the zoned and the preemptive
// engine.
func TestBudgetRejectsAreFinalVerdicts(t *testing.T) {
	topo, g := testMesh(t, 3, 3)
	mix := []ClassShare{{Class: ClassUGS, Weight: 0.5}, {Class: ClassBE, Weight: 0.5, SlotsPerLink: 2}}
	arms := []struct {
		name string
		cfg  Config
		mix  []ClassShare
	}{
		{"unzoned", Config{}, nil},
		{"zoned", Config{Zoned: true, ZoneSize: 250}, nil},
		{"preempt", Config{Preempt: true}, mix},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cfg := arm.cfg
			cfg.Graph, cfg.Frame = g, testFrame(t, 32)
			cfg.MILP = milp.Options{MaxNodes: 3, Workers: 1}
			cfg.BudgetRejects = true
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := Generate(WorkloadConfig{
				Topo: topo, Calls: 40, ArrivalRate: 10, MeanHolding: 500 * time.Millisecond,
				SlotsPerLink: 1, Seed: 1, ClassMix: arm.mix,
			})
			if err != nil {
				t.Fatal(err)
			}
			replayBatched(t, e, w, 3)
			if err := e.Check(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.BudgetRejected == 0 {
				t.Fatal("no budget rejection: the 3-node budget never bit")
			}
			if st.BudgetRejected > st.Rejected {
				t.Fatalf("%d budget rejections booked against %d rejections", st.BudgetRejected, st.Rejected)
			}
		})
	}
}

// TestUnzonedNeverGreedy pins the single-zone case: an unzoned engine is
// one zone holding every link, and its zone-size gate is resolved to
// "never" at New. Serving far more conflicting active link pairs than
// partition.DefaultMaxZonePairs — and under a gate of 1 — it never packs
// greedily, and every verdict and solver-tier window matches a cold
// schedule.MinSlots re-plan.
func TestUnzonedNeverGreedy(t *testing.T) {
	topo, g := clusterMesh(t, 6)
	frame := testFrame(t, 16)
	e, err := New(Config{Graph: g, Frame: frame, MaxZonePairs: 1,
		MILP: milp.Options{MaxNodes: 200_000, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	demand := make(map[topology.LinkID]int)
	cold := func(next map[topology.LinkID]int) (int, bool) {
		p := &schedule.Problem{Graph: g, Demand: next, FrameSlots: frame.DataSlots}
		win, _, _, err := schedule.MinSlots(p, frame, milp.Options{MaxNodes: 200_000, Workers: 1})
		if errors.Is(err, schedule.ErrInfeasible) {
			return 0, false
		}
		if err != nil {
			t.Fatalf("cold re-plan: %v", err)
		}
		return win, true
	}
	// Every directed link of every 2x2 cluster: a cluster's eight links
	// all conflict, so the active pairs grow by 28 per cluster. The second
	// pass overloads each cluster past the frame, forcing rejections.
	decided, rejected := 0, 0
	for pass, slots := range []int{1, 4} {
		for _, l := range topo.Links() {
			f := Flow{ID: FlowID(fmt.Sprintf("p%d-l%d", pass, l.ID)), Path: []topology.LinkID{l.ID}, Slots: []int{slots}}
			next := make(map[topology.LinkID]int, len(demand)+1)
			for k, d := range demand {
				next[k] = d
			}
			next[l.ID] += slots
			coldWin, feasible := cold(next)
			dec, err := e.Admit(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			decided++
			if dec.Admitted != feasible {
				t.Fatalf("%s: engine admitted=%v (tier %v), cold feasible=%v", f.ID, dec.Admitted, dec.Tier, feasible)
			}
			if !dec.Admitted {
				rejected++
				continue
			}
			demand = next
			if dec.Tier != TierFast && dec.Window != coldWin {
				t.Fatalf("%s: %v-tier window %d, cold window %d", f.ID, dec.Tier, dec.Window, coldWin)
			}
			if err := e.Check(); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := &schedule.Problem{Graph: g, Demand: demand, FrameSlots: frame.DataSlots}
	if pairs := partition.ActivePairs(p); pairs <= partition.DefaultMaxZonePairs {
		t.Fatalf("only %d active conflicting pairs, want more than %d", pairs, partition.DefaultMaxZonePairs)
	}
	if rejected == 0 {
		t.Fatalf("no rejection in %d decisions", decided)
	}
	st := e.Stats()
	if st.ZoneGreedy != 0 {
		t.Fatalf("unzoned engine packed %d zones greedily", st.ZoneGreedy)
	}
	t.Logf("%d decisions, %d rejected: %+v", decided, rejected, st)
}

// TestZoneLowerBoundReset pins the zone lower bound's life cycle: an exact
// solver admission records its window as the zone's lo, and a release or a
// preemption eviction zeroes it, so the next solve on the lighter demand
// finds the cold re-plan's window instead of the stale bound.
func TestZoneLowerBoundReset(t *testing.T) {
	topo, g := testMesh(t, 1, 4) // 4-node chain: all links mutually conflict
	path01, err := topo.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path12, err := topo.ShortestPath(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	admit := func(e *Engine, f Flow, wantWin int) Decision {
		t.Helper()
		d, err := e.Admit(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted || d.Window != wantWin {
			t.Fatalf("%s: %+v, want admitted at window %d", f.ID, d, wantWin)
		}
		if err := e.Check(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	lo := func(e *Engine) int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.zones[0].lo
	}

	t.Run("release", func(t *testing.T) {
		// Compact on every release, so the window shrinks to the survivor.
		e, err := New(Config{Graph: g, Frame: testFrame(t, 16), CompactEvery: 1,
			MILP: milp.Options{MaxNodes: 100_000, Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		admit(e, Flow{ID: "a", Path: path01, Slots: []int{4}}, 4)
		admit(e, Flow{ID: "b", Path: path12, Slots: []int{4}}, 8)
		if got := lo(e); got != 8 {
			t.Fatalf("lo after exact admissions = %d, want 8", got)
		}
		if err := e.Release("b"); err != nil {
			t.Fatal(err)
		}
		if got := lo(e); got != 0 {
			t.Fatalf("lo after release = %d, want 0", got)
		}
		// Cold re-plan: 5 slots on one link. A stale bound of 8 would
		// admit at window 8.
		if d := admit(e, Flow{ID: "c", Path: path01, Slots: []int{1}}, 5); d.Tier == TierFast {
			t.Fatalf("re-admission took the fastpath: %+v", d)
		}
	})

	t.Run("eviction", func(t *testing.T) {
		e, err := New(Config{Graph: g, Frame: testFrame(t, 16), MaxWindow: 8, Preempt: true,
			MILP: milp.Options{MaxNodes: 100_000, Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		admit(e, Flow{ID: "be-a", Path: path01, Slots: []int{4}}, 4)
		admit(e, Flow{ID: "be-b", Path: path12, Slots: []int{3}}, 7)
		// 9 slots cannot fit the 8-slot cap; evicting the cheaper be-b
		// leaves 6 — the cold window, below the bound of 7 recorded before
		// the eviction. Whether the retry solves or fills in depends on
		// where be-b sat; either way lo must stay a sound lower bound.
		d, err := e.Admit(ctx, Flow{ID: "ugs", Path: path12, Slots: []int{2}, Class: ClassUGS})
		if err != nil {
			t.Fatal(err)
		}
		if !d.Admitted || len(d.Preempted) != 1 || d.Preempted[0] != "be-b" {
			t.Fatalf("%+v, want admitted evicting be-b", d)
		}
		if d.Tier != TierFast && d.Window != 6 {
			t.Fatalf("%v-tier window %d, cold window 6", d.Tier, d.Window)
		}
		if got := lo(e); got > 6 {
			t.Fatalf("lo after the eviction = %d, above the cold window 6", got)
		}
		if err := e.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestZonedRejectRollsBack pins the serial zoned engine's rollback: it
// stitches each zone right after its solve, so a later zone's rejection
// must undo the earlier zones' stitches. The arrival crosses two zones of a
// 4x4 grid cut into 250 m zones; the first zone solves and stitches into
// the slack under the cap, the second is a two-link clique the arrival
// overloads past the cap.
func TestZonedRejectRollsBack(t *testing.T) {
	topo, g := testMesh(t, 4, 4)
	e, err := New(Config{Graph: g, Frame: testFrame(t, 32), MaxWindow: 14, Zoned: true, ZoneSize: 250,
		MILP: milp.Options{MaxNodes: 100_000, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, dst := range []topology.NodeID{14, 11} {
		path, err := topo.ShortestPath(15, dst)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := e.Admit(ctx, Flow{ID: FlowID(fmt.Sprintf("full-%d", i)), Path: path, Slots: []int{6}}); err != nil || !d.Admitted {
			t.Fatalf("preload %d: %+v, %v", i, d, err)
		}
	}
	path, err := topo.ShortestPath(15, 13)
	if err != nil {
		t.Fatal(err)
	}
	if zs := e.dec.ZoneSet(path); len(zs) != 2 || zs[1] != e.dec.ZoneOf(path[0]) {
		t.Fatalf("path %v spans zones %v, want two with the loaded one last", path, zs)
	}
	before := canonical(e.Snapshot().Assignments)
	d, err := e.Admit(ctx, Flow{ID: "cross", Path: path, Slots: []int{3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Admitted {
		t.Fatalf("arrival into a full zone admitted: %+v", d)
	}
	if err := e.Check(); err != nil {
		t.Fatalf("after the rejection: %v", err)
	}
	if after := canonical(e.Snapshot().Assignments); !slices.Equal(before, after) {
		t.Fatalf("rejection changed the schedule:\nbefore %v\nafter  %v", before, after)
	}
}
