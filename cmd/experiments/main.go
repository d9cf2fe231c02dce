// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-seed N] [-quick] [-eps E] all
//	experiments [-seed N] [-quick] [-eps E] table1 fig9 fig12 ...
//	experiments -timeout 30m -checkpoint runs/ all
//	experiments -obsaddr :9188 -report RUN_REPORT.json -quick all
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof -quick all
//	experiments -list
//
// Each experiment writes plot-ready text (aligned series and tables) to
// stdout. -quick scales the synthetic data sets down so the whole suite
// finishes in about a minute; the default runs at paper scale.
//
// A run is interruptible and resumable: SIGINT/SIGTERM (or an exceeded
// -timeout) cancels the computation but still flushes every experiment
// that completed, and with -checkpoint those completed experiments are
// stored so a rerun replays them instead of recomputing — the final
// output is byte-identical to an uninterrupted run. Exit codes: 2 for
// usage errors, 1 for runtime errors, 130 when interrupted.
//
// Observability (all off by default, and provably free when off —
// metrics never feed back into the computation, so output is
// byte-identical either way):
//
//	-obsaddr ADDR   serve /metrics (Prometheus text), /debug/vars
//	                (expvar) and /debug/pprof on ADDR while running;
//	                :0 picks a free port (logged to stderr)
//	-obslog FILE    append one JSON line per finished stage span
//	-report FILE    write a RUN_REPORT.json summary at exit: per-stage
//	                wall times, span totals, counters and histogram
//	                quantiles
//
// When stderr is a terminal (and -quiet is not given), a single-line
// live progress reporter shows done/total experiments, the current
// stage, elapsed time and busy workers; on pipes and CI logs it
// degrades to the plain per-argument completion lines.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opportunet/internal/checkpoint"
	"opportunet/internal/cli"
	"opportunet/internal/experiments"
	"opportunet/internal/obs"
	"opportunet/internal/par"
)

func main() {
	seed := flag.Uint64("seed", 1, "seed for every generator in the run")
	quick := flag.Bool("quick", false, "scale data sets down for a fast run")
	eps := flag.Float64("eps", 0.01, "diameter confidence parameter (paper: 0.01)")
	workers := flag.Int("workers", 0, "worker goroutines for the engine, aggregation and experiment fan-out (0 = all cores); output is identical at every count")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0 = no limit); completed experiments still flush")
	ckptDir := flag.String("checkpoint", "", "store completed experiments in this directory and replay them on rerun")
	list := flag.Bool("list", false, "list available experiments and exit")
	outDir := flag.String("o", "", "write each experiment's output to <dir>/<name>.txt instead of stdout")
	obsAddr := flag.String("obsaddr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running (:0 picks a free port)")
	obsLog := flag.String("obslog", "", "append one JSON line per finished stage span to this file")
	report := flag.String("report", "", "write a RUN_REPORT.json run summary to this file at exit")
	prof := cli.AddProfileFlags()
	vb := cli.AddVerbosityFlags()
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Description)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		cli.Usage("experiments", "name one or more experiments, or 'all' (-list to enumerate)")
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			cli.Fail("experiments", err)
		}
	}

	// Observability is active if any obs flag was given or a terminal
	// wants live progress. Wiring happens once, before any computation
	// or goroutine starts.
	progressOn := !vb.Quiet() && obs.IsTerminal(os.Stderr)
	obsOn := *obsAddr != "" || *obsLog != "" || *report != "" || progressOn
	var reg *obs.Registry
	if obsOn {
		reg = obs.NewRegistry()
		obs.Wire(reg)
	}
	stages := obs.NewStages() // nil-safe when left nil; cheap enough to always keep
	stages.Enter("setup")

	var spans *obs.SpanLog
	if *obsLog != "" {
		f, err := os.Create(*obsLog)
		if err != nil {
			cli.Fail("experiments", err)
		}
		defer f.Close()
		spans = obs.NewSpanLog(f)
	} else if *report != "" {
		spans = obs.NewSpanLog(nil) // aggregate only
	}

	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			cli.Fail("experiments", err)
		}
		defer srv.Close()
		vb.Logf("[obs: serving /metrics, /debug/vars, /debug/pprof on http://%s]", srv.Addr())
	}

	var progress *obs.Progress
	if progressOn {
		progress = obs.StartProgress(os.Stderr, 0,
			reg.Gauge("par_workers_busy", ""), par.Resolve(*workers))
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := prof.Start(); err != nil {
		cli.Fail("experiments", err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			cli.Fail("experiments", err)
		}
	}()
	var store *checkpoint.Store
	if *ckptDir != "" {
		var err error
		if store, err = checkpoint.Open(*ckptDir); err != nil {
			cli.Fail("experiments", err)
		}
	}
	cfg := &experiments.Config{
		Out: os.Stdout, Seed: *seed, Quick: *quick, Eps: *eps, Workers: *workers,
		Ctx: ctx, Checkpoint: store, Log: vb.Writer(),
		Spans: spans, Progress: progress,
	}
	runOne := func(e experiments.Experiment) error {
		if *outDir == "" {
			return experiments.RunOne(cfg, e)
		}
		f, err := os.Create(filepath.Join(*outDir, e.Name+".txt"))
		if err != nil {
			return err
		}
		defer f.Close()
		return experiments.RunOne(cfg.WithOutput(f), e)
	}
	run := func(name string) error {
		if name == "all" {
			if *outDir == "" {
				return experiments.RunAll(cfg)
			}
			for _, e := range experiments.All() {
				if err := runOne(e); err != nil {
					return fmt.Errorf("%s: %w", e.Name, err)
				}
			}
			return nil
		}
		e, err := experiments.Find(name)
		if err != nil {
			return err
		}
		return runOne(e)
	}
	stages.Enter("experiments")
	runSpan := spans.Start("run")
	for i, name := range args {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		if err := run(name); err != nil {
			progress.Stop()
			cli.Fail("experiments", err)
		}
		if progress == nil {
			// The live reporter already shows completions; on pipes and
			// CI logs, keep the plain per-argument line.
			vb.Logf("[%s done in %v]", name, time.Since(start).Round(time.Millisecond))
		}
	}
	runSpan.End()
	progress.Stop()

	stages.Enter("report")
	if *report != "" {
		rep := obs.BuildReport("experiments "+strings.Join(args, " "),
			*quick, par.Resolve(*workers), stages, spans, reg)
		f, err := os.Create(*report)
		if err != nil {
			cli.Fail("experiments", err)
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			cli.Fail("experiments", werr)
		}
		vb.Debugf("[report: wrote %s]", *report)
	}
}
