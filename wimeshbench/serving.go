package main

import (
	"context"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/obs"
	"wimesh/internal/topology"
)

// onTimeLimit is the verdict latency within which an admission counts as
// on time (ROADMAP item 1's p99 gate). A refusal always counts as a miss.
const onTimeLimit = 20 * time.Millisecond

// serving is one set-up serving mesh: engine, graph, window cap and the
// seed's call stream.
type serving struct {
	graph  *conflict.Graph
	eng    *admit.Engine
	cap    int
	stream *callStream
	pins   pinSet
	// conflictMS and newMS time the conflict-graph build and the engine
	// construction of this set-up.
	conflictMS, newMS float64
}

// classMix is R21's offered class mix (class share / slots per link).
var classMix = []admit.ClassShare{
	{Class: admit.ClassUGS, Weight: 0.40, SlotsPerLink: 1},
	{Class: admit.ClassRtPS, Weight: 0.25, SlotsPerLink: 2},
	{Class: admit.ClassNrtPS, Weight: 0.20, SlotsPerLink: 2},
	{Class: admit.ClassBE, Weight: 0.15, SlotsPerLink: 1},
}

// classesSetup builds the 250-node city on the serial zoned engine as R21
// runs it: 256-slot frame, 260 m zones, a 2000-node solve budget with no
// wall-clock limit, UGS deadline 96 and rtPS window 192, preemption on.
// Calls route to the gateway with R21's class mix, Poisson 30/s with 4 s
// mean holding: 120 Erlang, an overload.
func classesSetup(seed int64, reg *obs.Registry, spans *spanLog) (*serving, error) {
	root := spans.begin("setup", "", 0)
	defer spans.end(root)
	net, g, build, err := cityTopo(250, spans, root)
	if err != nil {
		return nil, err
	}
	id := spans.begin("admit.New", "", root)
	start := time.Now()
	eng, err := admit.New(admit.Config{
		Graph:         g,
		Frame:         frame(cityFrameSlots),
		MILP:          milp.Options{MaxNodes: 2000, Workers: 1},
		BudgetRejects: true,
		Zoned:         true,
		ZoneSize:      cityZone,
		UGSDeadline:   96,
		RtPSWindow:    192,
		Preempt:       true,
		Registry:      reg,
	})
	newMS := ms(time.Since(start))
	spans.end(id)
	if err != nil {
		return nil, err
	}
	s := &serving{graph: g, eng: eng, cap: cityFrameSlots, conflictMS: ms(build), newMS: newMS,
		stream: newCallStream(admit.WorkloadConfig{Topo: net, Calls: 1000, ArrivalRate: 30,
			MeanHolding: 4 * time.Second, SlotsPerLink: 1, Seed: seed, ToGateway: true, ClassMix: classMix})}
	return s, s.pin(net, root, spans)
}

// pin digests the topology and the first call chunk, and generates that
// chunk so the first decisions do not pay for it.
func (s *serving) pin(net *topology.Network, root int, spans *spanLog) error {
	id := spans.begin("admit.Generate", "", root)
	defer spans.end(id)
	calls, err := streamDigest(s.stream)
	if err != nil {
		return err
	}
	s.pins = pinSet{"topology": topoDigest(net), "calls": calls}
	return s.stream.refill()
}

// serveRec collects one serving run's observations.
type serveRec struct {
	offered                   int
	guarOffered, guarAdmitted int
	lat                       samples    // ms, each Admit call
	granted                   []bool     // each arrival's verdict
	tierLat                   [4]samples // ms, per admit.Tier
	solved                    int
	pivots                    int
	releases                  samples // us
	windows                   samples // slots, per arrival
	preempt                   samples // ms, decisions that entered the preemption search
	wall                      time.Duration
	// stats0 and stats1 are the engine tallies at the start and end of the
	// measured replay.
	stats0, stats1 admit.Stats
	gates
}

// decided books one verdict.
func (r *serveRec) decided(f admit.Flow, d admit.Decision, lat time.Duration, cap int) {
	r.offered++
	r.attempted++
	r.lat = append(r.lat, ms(lat))
	r.granted = append(r.granted, d.Admitted)
	r.tierLat[d.Tier] = append(r.tierLat[d.Tier], ms(lat))
	r.solved += d.Solved
	r.pivots += d.Pivots
	if d.Window > cap {
		r.fail("%s: window %d over the %d-slot cap", f.ID, d.Window, cap)
	}
	if f.Class.Guaranteed() {
		r.guarOffered++
	}
	if d.Admitted && f.Class.Guaranteed() {
		r.guarAdmitted++
	}
}

// gate runs the engine's invariant check and validates a snapshot of the
// live schedule against the full conflict graph.
func (s *serving) gate(r *serveRec, spans *spanLog, parent int) {
	id := spans.begin("admit.Check", "", parent)
	err := s.eng.Check()
	spans.end(id)
	r.attempted++
	if err != nil {
		r.fail("engine check: %v", err)
	}
	id = spans.begin("tdma.Validate", "", parent)
	err = s.eng.Snapshot().Validate(s.graph)
	spans.end(id)
	r.attempted++
	if err != nil {
		r.fail("snapshot validate: %v", err)
	}
}

// gateEvery is how many arrivals a traced run decides between gates.
const gateEvery = 250

// closedLoop replays the stream through one caller, each Admit or Release
// issued as soon as the previous one returns, until dur of replay time has
// passed. Replay time excludes chunk generation and traced-run gates.
func (s *serving) closedLoop(ctx context.Context, dur time.Duration, spans *spanLog) *serveRec {
	r := &serveRec{}
	traced := spans != nil
	root := spans.begin("serve", "", 0)
	admitted := make(map[admit.FlowID]bool)
	var paused time.Duration
	r.stats0 = s.eng.Stats()
	gen0 := s.stream.genTime
	start := time.Now()
	for time.Since(start)-paused-(s.stream.genTime-gen0) < dur {
		ev, err := s.stream.next()
		if err != nil {
			r.fail("generate: %v", err)
			break
		}
		id := string(ev.Flow.ID)
		if !ev.Arrive {
			if !admitted[ev.Flow.ID] {
				continue
			}
			sp := spans.begin("admit.Release", id, root)
			t0 := time.Now()
			err := s.eng.Release(ev.Flow.ID)
			r.releases = append(r.releases, us(time.Since(t0)))
			spans.end(sp)
			r.attempted++
			if err != nil {
				r.fail("release %s: %v", id, err)
			}
			delete(admitted, ev.Flow.ID)
			continue
		}
		var before admit.Stats
		if traced {
			before = s.eng.Stats()
		}
		sp := spans.begin("admit.Admit", id, root)
		t0 := time.Now()
		dec, err := s.eng.Admit(ctx, ev.Flow)
		lat := time.Since(t0)
		spans.end(sp)
		if err != nil {
			r.offered++
			r.attempted++
			r.fail("admit %s: %v", id, err)
			continue
		}
		r.decided(ev.Flow, dec, lat, s.cap)
		if dec.Admitted {
			admitted[ev.Flow.ID] = true
			for _, v := range dec.Preempted {
				if !admitted[v] {
					r.fail("%s evicted %s, which was not admitted", id, v)
				}
				delete(admitted, v)
			}
		}
		if traced {
			r.windows = append(r.windows, float64(s.eng.Window()))
			if s.eng.Stats().PreemptAttempts > before.PreemptAttempts {
				r.preempt = append(r.preempt, ms(lat))
			}
			if r.offered%gateEvery == 0 {
				t := time.Now()
				s.gate(r, spans, root)
				paused += time.Since(t)
			}
		}
	}
	r.wall = time.Since(start) - paused - (s.stream.genTime - gen0)
	spans.end(root)
	r.stats1 = s.eng.Stats()
	s.gate(r, spans, 0)
	return r
}
