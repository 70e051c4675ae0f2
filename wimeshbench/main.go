// Command wimeshbench is the wimesh benchmark. It runs one named workload
// through the planning and serving stack from outside, checks every output,
// and prints its metrics, each with its unit, ending with one JSON line:
//
//	wimeshbench --workload city-classes --seed 42 --seconds 45 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run measures half its time untraced and half traced
// (spans around every call into the program, the engine's obs counters on)
// and reports the per-layer metrics, the spans' self times and the tracing
// overhead; the spans are written to .bench_build/traces. The workloads, the
// metrics and how each per-layer metric maps to an end-to-end one are
// described in README.md.
//
// Exit status: 0 for a clean run, 1 when a correctness gate or an input
// digest failed (the JSON line still prints, with "correct": false) and 2
// for a usage or set-up error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd is what a user of the planner or the serving engine sees; every
// workload reports every one (README.md defines each per workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"decisions_per_s", "1/s"},
	{"decide_p50_ms", "ms"},
	{"decide_tail_ms", "ms"},
	{"admit_share", "share"},
	{"on_time_share", "share"},
	{"heap_mb", "MB"},
}

// perLayer is what the traced run reports; a layer a workload never enters
// reads 0.
var perLayer = []metric{
	{"admit.fast_share", "share"},
	{"admit.warm_share", "share"},
	{"admit.cold_share", "share"},
	{"admit.fast_us_p50", "us"},
	{"admit.warm_ms_p50", "ms"},
	{"admit.warm_ms_tail", "ms"},
	{"admit.cold_ms_tail", "ms"},
	{"admit.budget_reject_share", "share"},
	{"admit.satisfice_share", "share"},
	{"admit.release_us_p50", "us"},
	{"admit.release_us_tail", "us"},
	{"admit.compactions", "count"},
	{"admit.window_slots_mean", "slots"},
	{"admit.preempt_ms_tail", "ms"},
	{"admit.preempt_win_share", "share"},
	{"admit.evicted_per_preempt", "count"},
	{"admit.guaranteed_admit_share", "share"},
	{"admit.new_ms", "ms"},
	{"milp.solves_per_decision", "count"},
	{"lp.pivots_per_decision", "count"},
	{"milp.nodes_per_solve", "count"},
	{"conflict.build_ms", "ms"},
	{"partition.plan_s", "s"},
	{"partition.window_slots", "slots"},
	{"partition.zone_solve_ms_tail", "ms"},
	{"partition.greedy_fallback_share", "share"},
	{"partition.stitch_repairs", "count"},
	{"schedule.plan_ms", "ms"},
	{"core.capacity_s", "s"},
	{"core.capacity_tdma_ms", "ms"},
	{"core.capacity_dcf_ms", "ms"},
	{"core.full_probes_per_search", "count"},
	{"core.screen_hit_share", "share"},
	{"analytic.predict_us", "us"},
	{"core.run_tdma_ms", "ms"},
	{"core.run_dcf_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"mac.tx_per_run", "count"},
	{"mac.collided_share", "share"},
	{"obs.trace_overhead_share", "share"},
}

// gates counts correctness checks: every decision, release, plan, search
// and invariant check is one attempted operation, and one that errs or
// fails its check is failed.
type gates struct {
	attempted, failed int
	msgs              []string
}

func (g *gates) fail(format string, args ...any) {
	g.failed++
	if len(g.msgs) < 20 {
		g.msgs = append(g.msgs, fmt.Sprintf(format, args...))
	}
}

func (g *gates) merge(o gates) {
	g.attempted += o.attempted
	g.failed += o.failed
	for _, m := range o.msgs {
		if len(g.msgs) < 20 {
			g.msgs = append(g.msgs, m)
		}
	}
}

// options is one invocation.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
}

// report is one run's outcome.
type report struct {
	values map[string]float64
	gates
	pins  pinSet // the run's input digests
	notes []string
	spans *spanLog
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named input set and how to run it.
type workload struct {
	name string
	run  func(ctx context.Context, o options) (*report, error)
}

var workloads = []workload{
	{"city-classes", runClasses},
	{"offline-plan", runOffline},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wimeshbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: city-classes or offline-plan")
	seed := fs.Int64("seed", 42, "input seed; pinned seeds (pins.json) also check their input digests")
	seconds := fs.Float64("seconds", 45, "measured time per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	record := fs.String("record-pins", "", "comma-separated seeds: print their input digests and plan windows as pins.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordPins(*record, stdout); err != nil {
			fmt.Fprintln(stderr, "wimeshbench:", err)
			return 2
		}
		return 0
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "wimeshbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		fmt.Fprintln(stderr, "wimeshbench:", err)
		return 2
	}
	o := options{workload: *name, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	rep, err := workloads[i].run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "wimeshbench:", err)
		return 2
	}
	return finish(o, rep, stdout, stderr)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// finish checks the run's input digests, writes the trace, prints the
// metrics and the result line, and returns the exit status.
func finish(o options, rep *report, stdout, stderr io.Writer) int {
	bad, want, err := checkPins(o.workload, o.seed, rep.pins)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "wimeshbench:", err)
		return 2
	case want == nil:
		rep.note("inputs: seed %d is not pinned; digests %v", o.seed, rep.pins)
	case len(bad) > 0:
		for _, b := range bad {
			rep.fail("input digest %s", b)
		}
	default:
		rep.note("inputs: match the digests pinned for seed %d", o.seed)
	}
	if rep.spans != nil {
		path, err := writeTrace(o, rep.spans)
		if err != nil {
			fmt.Fprintln(stderr, "wimeshbench:", err)
			return 2
		}
		rep.note("trace: %s", path)
	}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %.0f s, trace %v\n", o.workload, o.seed, o.dur.Seconds(), o.trace)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok {
			fmt.Fprintf(stderr, "wimeshbench: %s did not measure %s\n", o.workload, m.name)
			return 2
		}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, v, m.unit)
		out[m.name] = value{v, m.unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range rep.msgs {
		fmt.Fprintln(stdout, "FAILED:", m)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, out})
	if err != nil {
		fmt.Fprintln(stderr, "wimeshbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// checkBenchmarkJSON keeps BENCHMARK.json and the metric lists above in
// step: a metric added to one and not the other fails every run.
func checkBenchmarkJSON(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(a []struct{ Name, Unit string }, b []metric) bool {
		return slices.EqualFunc(a, b, func(x struct{ Name, Unit string }, m metric) bool {
			return x.Name == m.name && x.Unit == m.unit
		})
	}
	if !same(spec.EndToEnd, endToEnd) || !same(spec.PerLayer, perLayer) {
		return fmt.Errorf("%s lists other metrics than the benchmark measures", path)
	}
	return nil
}

// writeTrace writes the run's spans and per-name self times under
// .bench_build/traces.
func writeTrace(o options, spans *spanLog) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, o.workload+"-seed"+strconv.FormatInt(o.seed, 10)+".json")
	spans.mu.Lock()
	all := slices.Clone(spans.spans)
	spans.mu.Unlock()
	buf, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Self     map[string]spanTotals `json:"self_times"`
		Spans    []span                `json:"spans"`
	}{o.workload, o.seed, spans.selfTimes(), all})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// selfTimeNotes lists the spans' self times, largest first.
func selfTimeNotes(rep *report) {
	self := rep.spans.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	slices.SortFunc(names, func(a, b string) int {
		switch {
		case self[a].SelfMS > self[b].SelfMS:
			return -1
		case self[a].SelfMS < self[b].SelfMS:
			return 1
		}
		return strings.Compare(a, b)
	})
	rep.note("self times (traced half): span, count, total ms, self ms")
	for _, n := range names {
		t := self[n]
		rep.note("  %-26s %8d %12.3f %12.3f", n, t.Count, t.TotalMS, t.SelfMS)
	}
}
