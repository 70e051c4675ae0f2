// Command meshbench regenerates the paper's evaluation: every reconstructed
// experiment R1-R19 indexed in DESIGN.md, printed as aligned tables.
//
// Usage:
//
//	meshbench                          # run everything
//	meshbench -only R3                 # one experiment
//	meshbench -only R3,R4,R8           # a subset
//	meshbench -list                    # list experiments
//	meshbench -workers 1               # sequential (output is byte-identical)
//	meshbench -json BENCH_2026-08-05.json  # also record metrics + wall clock
//	meshbench -only R7 -cpuprofile cpu.prof -memprofile mem.prof
//	meshbench -only R6 -metrics-out metrics.json -trace trace.jsonl
//
// Experiments (and their scenario points) are independent deterministic
// simulations, so -workers changes wall-clock only: tables are collected
// concurrently but rendered in canonical order, and every number is
// bit-identical to a -workers=1 run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wimesh/internal/core"
	"wimesh/internal/experiments"
	"wimesh/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

// jsonExperiment is one experiment's record in the -json report.
type jsonExperiment struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	WallMS float64    `json:"wall_ms"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// jsonFailure records one experiment that errored, so a partially failed run
// still ships machine-readable evidence of what broke.
type jsonFailure struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// jsonReport is the -json output: the headline metrics and wall clock of
// every experiment run. Committing one per PR (BENCH_<date>.json) makes the
// performance trajectory machine-readable PR-over-PR.
type jsonReport struct {
	Generated string `json:"generated"`
	// Workers is the effective concurrency the run used; WorkersNote records
	// why it differs from the -workers flag (e.g. -metrics-out/-trace force a
	// sequential run), so a recorded report is honest about its own settings.
	Workers     int              `json:"workers"`
	WorkersNote string           `json:"workers_note,omitempty"`
	Experiments []jsonExperiment `json:"experiments"`
	Failures    []jsonFailure    `json:"failures,omitempty"`
}

// metricsReport is the -metrics-out output: one obs counter snapshot per
// experiment, keyed by experiment ID (the registry is reset between
// experiments, so each snapshot is self-contained).
type metricsReport struct {
	Generated   string                  `json:"generated"`
	Experiments map[string]obs.Snapshot `json:"experiments"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	var (
		only       = fs.String("only", "", "run a subset of experiments, comma-separated (e.g. R3 or R3,R4)")
		list       = fs.Bool("list", false, "list experiments and exit")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = fs.String("json", "", "also write metrics and per-experiment wall clock to this file (convention: BENCH_<date>.json)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "how many experiments/scenario points run concurrently; 1 = sequential (results are bit-identical either way)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf    = fs.String("memprofile", "", "write an allocation profile taken after the run to this file")
		metricsOut = fs.String("metrics-out", "", "write per-experiment obs counter snapshots (JSON) to this file; forces -workers 1")
		tracePath  = fs.String("trace", "", "write a per-slot/per-frame event trace (JSON lines) to this file; forces -workers 1")
		screen     = fs.String("screen", "auto", "capacity-search screening tier: auto|analytic|none; affects wall clock only (the C/C+1 edge is always confirmed by full-length simulation)")
		queueCap   = fs.Int("queue-cap", 0, "finite per-link queue depth in packets for capacity-search experiments; 0 keeps each MAC's default (changes physics: shallower queues drop sooner)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := parseScreen(*screen)
	if err != nil {
		return err
	}
	experiments.SetScreen(mode)
	experiments.SetQueueCap(*queueCap)
	// Observability sinks are process-global (the sim kernels deep inside each
	// experiment find them via obs.Default), so enabling either flag forces a
	// sequential run: with concurrent experiments the counters could not be
	// attributed to one experiment. With both flags unset nothing is installed
	// and the hot paths keep their nil-sink zero-cost fast path — tables stay
	// byte-identical to an uninstrumented run either way, because observation
	// never perturbs simulation state.
	var (
		reg         *obs.Registry
		tr          *obs.Trace
		workersNote string
	)
	if *metricsOut != "" || *tracePath != "" {
		if *workers != 1 {
			workersNote = fmt.Sprintf("-workers %d overridden to 1: -metrics-out/-trace need sequential runs to attribute events per experiment", *workers)
			fmt.Fprintln(os.Stderr, "meshbench:", workersNote)
		}
		*workers = 1
		if *metricsOut != "" {
			reg = obs.NewRegistry()
			obs.SetDefault(reg)
			defer obs.SetDefault(nil)
		}
		if *tracePath != "" {
			tr = obs.NewTrace(obs.DefaultTraceCap)
			obs.SetDefaultTrace(tr)
			defer obs.SetDefaultTrace(nil)
		}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // settle live objects so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "meshbench: memprofile:", err)
			}
			f.Close()
		}()
	}
	experiments.SetWorkers(*workers)
	if *list {
		fmt.Fprintln(out, "R1  minimum TDMA window vs. VoIP calls (ILP linear search)")
		fmt.Fprintln(out, "R2  scheduling delay vs. hops, by transmission order")
		fmt.Fprintln(out, "R3  VoIP call capacity: TDMA emulation vs. DCF")
		fmt.Fprintln(out, "R4  per-packet delay at fixed load: TDMA vs. DCF")
		fmt.Fprintln(out, "R5  slot efficiency: 802.11-emulated vs. native 802.16")
		fmt.Fprintln(out, "R6  schedule violations vs. clock-sync error")
		fmt.Fprintln(out, "R7  scheduler wall time vs. network size")
		fmt.Fprintln(out, "R8  DCF saturation throughput (baseline validation)")
		fmt.Fprintln(out, "R9  multi-service split: voice slots vs. best-effort capacity")
		fmt.Fprintln(out, "R10 hidden-terminal duel: DCF vs RTS/CTS vs TDMA")
		fmt.Fprintln(out, "R11 control-plane cost: centralized vs distributed scheduling")
		fmt.Fprintln(out, "R12 link-failure recovery: per-phase loss and rerouting")
		fmt.Fprintln(out, "R13 mixed voice+best-effort data plane: priority ablation")
		fmt.Fprintln(out, "R14 same schedule, measured: WiFi emulation vs native 802.16")
		fmt.Fprintln(out, "R15 routing metric under lossy links: hop-count vs ETX, ARQ ablation")
		fmt.Fprintln(out, "R16 interference-model ablation: planned window vs on-air violations")
		fmt.Fprintln(out, "R17 frame-duration trade-off: capacity vs delay")
		fmt.Fprintln(out, "R18 partitioned scheduling at city scale: window and wall clock vs zone size")
		fmt.Fprintln(out, "R19 incremental admission serving: throughput and decision latency vs scale")
		return nil
	}
	render := func(t *experiments.Table) error {
		if *csvOut {
			return t.WriteCSV(out)
		}
		t.Fprint(out)
		return nil
	}
	ids := experiments.IDs()
	if *only != "" {
		valid := make(map[string]bool, len(ids))
		for _, id := range ids {
			valid[id] = true
		}
		ids = nil
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id == "" {
				continue
			}
			id = strings.ToUpper(id)
			if !valid[id] {
				return fmt.Errorf("-only: unknown experiment %q (valid: %s)",
					id, strings.Join(experiments.IDs(), ", "))
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return fmt.Errorf("-only: no experiment ids in %q (valid: %s)",
				*only, strings.Join(experiments.IDs(), ", "))
		}
	}
	// Run experiments concurrently (wall clock measured per experiment inside
	// its task), then render in canonical order — the sequential and parallel
	// paths produce byte-identical output.
	type result struct {
		table *experiments.Table
		wall  time.Duration
		err   error
	}
	results := make([]result, len(ids))
	metrics := metricsReport{Experiments: make(map[string]obs.Snapshot)}
	runOne := func(i int) {
		if tr != nil {
			// A mark separates each experiment's events in the shared trace.
			tr.Emit(obs.Event{Kind: obs.KindMark, Node: -1, Link: -1, Slot: -1,
				Frame: -1, Label: ids[i]})
		}
		if *workers == 1 {
			// Sequential runs time each experiment in isolation: collect the
			// predecessors' garbage before starting the clock so an
			// experiment's wall time does not include GC debt inherited from
			// whatever ran before it (the same hygiene testing.B applies
			// between benchmarks). Virtual-time results are unaffected.
			runtime.GC()
		}
		start := time.Now()
		results[i].table, results[i].err = experiments.ByID(ids[i])
		results[i].wall = time.Since(start)
		if reg != nil {
			// Scope the snapshot to this experiment (the run is sequential
			// whenever reg is installed); Reset keeps live handles valid.
			metrics.Experiments[ids[i]] = reg.Snapshot()
			reg.Reset()
		}
	}
	if w := min(*workers, len(ids)); w > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(ids) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range ids {
			runOne(i)
		}
	}
	report := jsonReport{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Workers:     *workers,
		WorkersNote: workersNote,
	}
	// One failed experiment must not discard the completed ones: render every
	// success, record every failure, write the (partial) reports, and only
	// then exit nonzero naming all the failures.
	for i, r := range results {
		if r.err != nil {
			report.Failures = append(report.Failures, jsonFailure{
				ID: ids[i], Error: r.err.Error()})
			continue
		}
		if err := render(r.table); err != nil {
			return err
		}
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID:     r.table.ID,
			Title:  r.table.Title,
			WallMS: float64(r.wall.Microseconds()) / 1000,
			Header: r.table.Header,
			Rows:   r.table.Rows,
		})
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("write json report: %w", err)
		}
	}
	if reg != nil {
		metrics.Generated = report.Generated
		buf, err := json.MarshalIndent(&metrics, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if tr != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return failuresError(report.Failures)
}

// failuresError folds the failed experiments into one error naming each, or
// nil when everything succeeded.
func failuresError(failures []jsonFailure) error {
	if len(failures) == 0 {
		return nil
	}
	parts := make([]string, len(failures))
	for i, f := range failures {
		parts[i] = fmt.Sprintf("%s: %s", f.ID, f.Error)
	}
	return fmt.Errorf("%d experiment(s) failed: %s", len(failures), strings.Join(parts, "; "))
}

// parseScreen maps the -screen flag to a core.ScreenMode.
func parseScreen(s string) (core.ScreenMode, error) {
	switch s {
	case "auto", "":
		return core.ScreenAuto, nil
	case "analytic":
		return core.ScreenAnalytic, nil
	case "none":
		return core.ScreenNone, nil
	default:
		return 0, fmt.Errorf("unknown -screen %q (want auto, analytic or none)", s)
	}
}
