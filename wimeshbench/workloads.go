package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"wimesh/internal/admit"
	"wimesh/internal/obs"
)

// planSetups is how many times a planning run builds its set-up; setup_s
// is the median.
const planSetups = 3

// The serving run starts classesLifetimes engines one after the other, each
// from its own set-up and call stream and measured for an equal share of
// the run, and reports the median over them. An engine's solver models only
// ever grow, so how fast one serves depends on the calls it saw first, and
// one engine per run would make the figures move with that luck.
// admit_share and on_time_share count each lifetime's first sharePrefix
// calls, which every lifetime reaches, so a faster program does not change
// the calls they count by going deeper into overload. decide_tail_ms is each
// lifetime's classesTail quantile: the p99 moved by half from seed to seed,
// past any bound the benchmark may set. A traced half runs tracedLifetimes
// lifetimes, as long as the untraced run's.
const (
	classesLifetimes = 15
	tracedLifetimes  = 7
	sharePrefix      = 300
	classesTail      = 0.9
)

// lifetime is what one engine's set-up and replay leave behind; the engine
// itself is dropped, so a run's heap holds one engine at a time.
type lifetime struct {
	r                 *serveRec
	pins              pinSet
	setup, heap       float64 // s; MB
	conflictMS, newMS float64
}

// runLifetimes replays n lifetimes of dur/n replay time each.
func runLifetimes(ctx context.Context, seed int64, dur time.Duration, n int, reg *obs.Registry, spans *spanLog) ([]lifetime, error) {
	var out []lifetime
	for k := range n {
		runtime.GC()
		start := time.Now()
		s, err := classesSetup(lifetimeSeed(seed, k), reg, spans)
		if err != nil {
			return nil, err
		}
		lt := lifetime{pins: s.pins, setup: time.Since(start).Seconds(), conflictMS: s.conflictMS, newMS: s.newMS}
		heap := startHeapSampler()
		lt.r = s.closedLoop(ctx, dur/time.Duration(n), spans)
		lt.heap = heap.finish()
		out = append(out, lt)
	}
	return out, nil
}

// collect merges the lifetimes' gates and pins into rep.
func collect(rep *report, lts []lifetime) {
	for k, lt := range lts {
		rep.gates.merge(lt.r.gates)
		for key, d := range lt.pins {
			rep.pins[lifetimeKey(key, k)] = d
		}
	}
}

// runClasses measures the serving workload: untraced, the median of each
// end-to-end metric over the run's lifetimes; traced, lifetimes untraced
// for half the time and again traced, reporting into an obs registry, for
// the other half, with each per-layer metric the median over the traced
// lifetimes.
func runClasses(ctx context.Context, o options) (*report, error) {
	rep := &report{values: make(map[string]float64), pins: pinSet{}}
	if !o.trace {
		lts, err := runLifetimes(ctx, o.seed, o.dur, classesLifetimes, nil, nil)
		if err != nil {
			return nil, err
		}
		collect(rep, lts)
		var setups, rates, p50s, tails, admits, onTimes, heaps samples
		for k, lt := range lts {
			r := lt.r
			setups = append(setups, lt.setup)
			heaps = append(heaps, lt.heap)
			rates = append(rates, ratio(float64(r.offered), r.wall.Seconds()))
			p50s = append(p50s, r.lat.median())
			tails = append(tails, r.lat.quantile(classesTail))
			admitted, onTime, n := 0, 0, min(sharePrefix, len(r.lat))
			for i := range n {
				if r.granted[i] {
					admitted++
					if r.lat[i] <= ms(onTimeLimit) {
						onTime++
					}
				}
			}
			admits = append(admits, ratio(float64(admitted), float64(n)))
			onTimes = append(onTimes, ratio(float64(onTime), float64(n)))
			rep.note("lifetime %d: %d verdicts, %d beyond p%g; %.1f decisions/s, p50 %.4f ms, tail %.3f ms, admitted %.3f, guaranteed %d of %d",
				k, len(r.lat), beyond(r.lat, classesTail), 100*classesTail, rates[k], p50s[k], tails[k], admits[k],
				r.guarAdmitted, r.guarOffered)
		}
		rep.values["setup_s"] = setups.median()
		rep.values["heap_mb"] = heaps.median()
		rep.values["decisions_per_s"] = rates.median()
		rep.values["decide_p50_ms"] = p50s.median()
		rep.values["decide_tail_ms"] = tails.median()
		rep.values["admit_share"] = admits.median()
		rep.values["on_time_share"] = onTimes.median()
		return rep, nil
	}

	plain, err := runLifetimes(ctx, o.seed, o.dur/2, tracedLifetimes, nil, nil)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	rep.spans = newSpanLog()
	traced, err := runLifetimes(ctx, o.seed, o.dur/2, tracedLifetimes, reg, rep.spans)
	if err != nil {
		return nil, err
	}
	collect(rep, plain)
	collect(rep, traced)
	snap := reg.Snapshot()
	per := make(map[string]samples)
	for _, lt := range traced {
		v := make(map[string]float64)
		servingLayers(v, lt, snap)
		for name, x := range v {
			per[name] = append(per[name], x)
		}
	}
	for name, xs := range per {
		rep.values[name] = xs.median()
	}
	// The halves replay the same lifetimes from the same seeds for the same
	// time, so their decision rates compare.
	var plainRate, tracedRate samples
	for k := range plain {
		plainRate = append(plainRate, ratio(float64(plain[k].r.offered), plain[k].r.wall.Seconds()))
		tracedRate = append(tracedRate, ratio(float64(traced[k].r.offered), traced[k].r.wall.Seconds()))
	}
	rep.values["obs.trace_overhead_share"] = ratio(plainRate.median(), tracedRate.median()) - 1
	selfTimeNotes(rep)
	return rep, nil
}

// lifetimeSeed is the call-stream seed of a run's k-th engine lifetime;
// lifetime 0 uses the run's seed itself.
func lifetimeSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

// lifetimeKey names lifetime k's digest in pins.json.
func lifetimeKey(key string, k int) string {
	if k == 0 {
		return key
	}
	return key + "." + strconv.Itoa(k)
}

// beyond counts the samples above the q-quantile.
func beyond(s samples, q float64) int {
	t, n := s.quantile(q), 0
	for _, v := range s {
		if v > t {
			n++
		}
	}
	return n
}

// servingLayers fills the per-layer metrics of a traced serving run.
func servingLayers(v map[string]float64, lt lifetime, snap obs.Snapshot) {
	for _, m := range perLayer {
		v[m.name] = 0
	}
	r := lt.r
	n := float64(r.offered)
	st0, st1 := r.stats0, r.stats1
	v["admit.fast_share"] = ratio(float64(len(r.tierLat[admit.TierFast])), n)
	v["admit.warm_share"] = ratio(float64(len(r.tierLat[admit.TierWarm])), n)
	v["admit.cold_share"] = ratio(float64(len(r.tierLat[admit.TierCold])), n)
	v["admit.fast_us_p50"] = 1000 * r.tierLat[admit.TierFast].median()
	v["admit.warm_ms_p50"] = r.tierLat[admit.TierWarm].median()
	v["admit.warm_ms_tail"] = tail(r.tierLat[admit.TierWarm])
	v["admit.cold_ms_tail"] = tail(r.tierLat[admit.TierCold])
	v["admit.budget_reject_share"] = ratio(float64(st1.BudgetRejected-st0.BudgetRejected), n)
	v["admit.satisfice_share"] = ratio(float64(st1.Satisficed-st0.Satisficed), n)
	v["admit.release_us_p50"] = r.releases.median()
	v["admit.release_us_tail"] = tail(r.releases)
	v["admit.compactions"] = float64(st1.Compactions - st0.Compactions)
	v["admit.window_slots_mean"] = r.windows.mean()
	v["admit.preempt_ms_tail"] = tail(r.preempt)
	v["admit.preempt_win_share"] = ratio(float64(st1.PreemptAdmits-st0.PreemptAdmits), float64(st1.PreemptAttempts-st0.PreemptAttempts))
	v["admit.evicted_per_preempt"] = ratio(float64(st1.PreemptEvicted-st0.PreemptEvicted), float64(st1.PreemptAdmits-st0.PreemptAdmits))
	v["admit.guaranteed_admit_share"] = ratio(float64(r.guarAdmitted), float64(r.guarOffered))
	v["admit.new_ms"] = lt.newMS
	v["milp.solves_per_decision"] = ratio(float64(r.solved), n)
	v["lp.pivots_per_decision"] = ratio(float64(r.pivots), n)
	v["milp.nodes_per_solve"] = ratio(float64(snap.Counters["milp.nodes"]), float64(snap.Counters["milp.solves"]))
	v["conflict.build_ms"] = lt.conflictMS
}

// tail is a per-layer sample's highest ladder percentile with at least ten
// samples beyond it, or its maximum when the sample is too small.
func tail(s samples) float64 {
	if q := tailOf(len(s)); q > 0 {
		return s.quantile(q)
	}
	return s.quantile(1)
}

// runOffline measures the planning workload. Traced runs spend half their
// time untraced and half traced, as the serving workloads do.
func runOffline(_ context.Context, o options) (*report, error) {
	rep := &report{values: make(map[string]float64)}
	if !o.trace {
		pl, setupS, err := timeSetup(planSetups, func() (*planning, error) { return planningSetup(nil) })
		if err != nil {
			return nil, err
		}
		want, err := pinnedWindows(o.seed)
		if err != nil {
			return nil, err
		}
		heap := startHeapSampler()
		r := pl.run(o.dur, nil, want)
		rep.values["heap_mb"] = heap.finish()
		rep.pins, rep.gates = pl.pins, r.gates
		rep.values["setup_s"] = setupS
		rep.values["decisions_per_s"] = ratio(float64(len(r.batches)), r.batches.sum()/1000)
		rep.values["decide_p50_ms"] = r.batches.median()
		rep.values["decide_tail_ms"] = r.slowestSet()
		var admitted, offered int
		for _, f := range pl.flows {
			admitted, offered = admitted+f.Admitted, offered+f.Offered
		}
		rep.values["admit_share"] = ratio(float64(admitted), float64(offered))
		rep.values["on_time_share"] = r.onTime.mean()
		rep.note("decide_tail_ms is the median batch time of the slowest of %d flow sets (%d batches, too few for a percentile with ten beyond it)",
			flowSets, len(r.batches))
		rep.note("plans: %d of %d offered flows over %d flow sets, windows %v slots, median %.3f s; capacity searches median %.3f s",
			admitted, offered, flowSets, r.windows, r.plan.median(), r.capacity.median())
		return rep, nil
	}
	pl, err := planningSetup(nil)
	if err != nil {
		return nil, err
	}
	want, err := pinnedWindows(o.seed)
	if err != nil {
		return nil, err
	}
	plain := pl.run(o.dur/2, nil, want)
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	rep.spans = newSpanLog()
	pl, err = planningSetup(rep.spans)
	if err != nil {
		return nil, err
	}
	r := pl.run(o.dur/2, rep.spans, want)
	rep.pins, rep.gates = pl.pins, r.gates
	rep.gates.merge(plain.gates)
	offlineLayers(rep.values, pl, r, reg.Snapshot())
	rep.values["obs.trace_overhead_share"] = ratio(r.batches.mean(), plain.batches.mean()) - 1
	selfTimeNotes(rep)
	return rep, nil
}

// offlineLayers fills the per-layer metrics of a traced planning run.
func offlineLayers(v map[string]float64, pl *planning, r *planRec, snap obs.Snapshot) {
	for _, m := range perLayer {
		v[m.name] = 0
	}
	c := snap.Counters
	v["milp.solves_per_decision"] = ratio(float64(c["milp.solves"]), float64(len(r.batches)))
	v["milp.nodes_per_solve"] = ratio(float64(c["milp.nodes"]), float64(c["milp.solves"]))
	v["conflict.build_ms"] = pl.conflictMS
	v["partition.plan_s"] = r.plan.median()
	var windows samples
	for _, w := range r.windows {
		windows = append(windows, float64(w))
	}
	v["partition.window_slots"] = windows.mean()
	if h, ok := snap.Histograms["partition.zone_solve_ms"]; ok {
		v["partition.zone_solve_ms_tail"] = histTail(h)
	}
	if r.res != nil {
		v["partition.greedy_fallback_share"] = ratio(float64(r.res.GreedyFallbacks), float64(r.res.Zones))
		v["partition.stitch_repairs"] = float64(r.res.Repairs)
	}
	v["schedule.plan_ms"] = r.schedPlan.median()
	v["core.capacity_s"] = r.capacity.median()
	v["core.capacity_tdma_ms"] = r.capTDMA.median()
	v["core.capacity_dcf_ms"] = r.capDCF.median()
	searches := float64(2 * len(capacityMeshes) * len(r.batches))
	v["core.full_probes_per_search"] = ratio(float64(c["core.probes.full"]), searches)
	v["core.screen_hit_share"] = ratio(float64(c["core.screen_bracket_hit"]),
		float64(c["core.screen_bracket_hit"]+c["core.screen_bracket_miss"]))
	v["analytic.predict_us"] = r.predict.median()
	v["core.run_tdma_ms"] = r.runTDMA.median()
	v["core.run_dcf_ms"] = r.runDCF.median()
	v["sim.events_per_s"] = ratio(float64(r.simEvents), r.simTime.Seconds())
	runs := float64(len(r.runTDMA) + len(r.runDCF))
	v["mac.tx_per_run"] = ratio(float64(r.txStarted), runs)
	v["mac.collided_share"] = ratio(float64(r.txCollided), float64(r.txStarted))
}

// histTail is the upper edge of the bin holding a histogram's highest
// ladder percentile (the obs histograms keep counts, not samples).
func histTail(h obs.HistogramSnapshot) float64 {
	q := tailOf(int(h.Total))
	if q == 0 {
		q = 1
	}
	width := (h.Max - h.Min) / float64(len(h.Counts))
	need := q * float64(h.Total)
	var seen float64
	for i, c := range h.Counts {
		seen += float64(c)
		if seen >= need {
			return h.Min + float64(i+1)*width
		}
	}
	return h.Max
}

// pinnedWindows is the plan window recorded for each of the seed's flow
// sets (nil when the seed is not pinned).
func pinnedWindows(seed int64) ([]int, error) {
	all, err := loadPins()
	if err != nil {
		return nil, err
	}
	s, ok := all[strconv.FormatInt(seed, 10)]["offline-plan"]["plan_window_slots"]
	if !ok {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("pins.json: plan window %q: %w", s, err)
		}
		out = append(out, w)
	}
	if len(out) != flowSets {
		return nil, fmt.Errorf("pins.json: %d plan windows for seed %d, want %d", len(out), seed, flowSets)
	}
	return out, nil
}

// recordPins prints pins.json for the given seeds: every workload's input
// digests and the offline plan's window.
func recordPins(list string, out io.Writer) error {
	seeds := map[string]map[string]pinSet{}
	for _, f := range strings.Split(list, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("--record-pins %q: %w", f, err)
		}
		set := map[string]pinSet{}
		classes := pinSet{}
		for k := range classesLifetimes {
			s, err := classesSetup(lifetimeSeed(seed, k), nil, nil)
			if err != nil {
				return err
			}
			for key, d := range s.pins {
				classes[lifetimeKey(key, k)] = d
			}
		}
		set["city-classes"] = classes
		pl, err := planningSetup(nil)
		if err != nil {
			return err
		}
		res := pl.run(time.Nanosecond, nil, nil) // one batch per flow set
		if res.failed > 0 {
			return fmt.Errorf("seed %d: %v", seed, res.msgs)
		}
		var ws []string
		for _, w := range res.windows {
			ws = append(ws, strconv.Itoa(w))
		}
		pins := pinSet{"plan_window_slots": strings.Join(ws, ",")}
		for k, d := range pl.pins {
			pins[k] = d
		}
		set["offline-plan"] = pins
		seeds[strconv.FormatInt(seed, 10)] = set
	}
	buf, err := json.MarshalIndent(map[string]any{
		"about": "Input digests and the offline plan window per seed and workload, written by " +
			"wimeshbench --record-pins. A run on a listed seed fails when its inputs differ.",
		"seeds": seeds,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(buf))
	return err
}
