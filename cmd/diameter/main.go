// Command diameter computes the delay-optimal paths, per-hop-bound delay
// CDFs and the (1−ε)-diameter of a contact trace, using the exhaustive
// algorithm of the paper's §4.
//
// Usage:
//
//	diameter -trace infocom05.trace
//	diameter -trace rand.trace -eps 0.05 -hops 1,2,3,4
//	tracegen -dataset hongkong | diameter
//
// The trace is read in the text format produced by cmd/tracegen.
// SIGINT/SIGTERM or an exceeded -timeout cancel the computation; exit
// codes are 2 for usage errors, 1 for runtime errors, 130 when
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"opportunet/internal/analysis"
	"opportunet/internal/cli"
	"opportunet/internal/core"
	"opportunet/internal/export"
	"opportunet/internal/reach"
	"opportunet/internal/stats"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

func main() {
	path := flag.String("trace", "", "trace file (default: read stdin)")
	eps := flag.Float64("eps", 0.01, "diameter confidence parameter")
	hops := flag.String("hops", "1,2,3,4,5,6", "comma-separated hop bounds to tabulate (0 = unbounded is always included)")
	points := flag.Int("points", 30, "delay-grid resolution")
	verify := flag.Int("verify", 0, "spot-check N random (source, time) points against an independent flooding simulation")
	approx := flag.Bool("approx", false, "bounds-only mode: certified success-curve envelopes and diameter bounds from the reach tier instead of exact curves (the envelopes are derived from one exhaustive path computation, so this does not skip the exhaustive engine)")
	workers := flag.Int("workers", 0, "worker goroutines for the path engine and aggregation (0 = all cores); results are identical at every count")
	timeout := flag.Duration("timeout", 0, "cancel the computation after this long (0 = no limit)")
	prof := cli.AddProfileFlags()
	vb := cli.AddVerbosityFlags()
	flag.Parse()
	ctx, stop := cli.Context(*timeout)
	defer stop()
	if err := prof.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fail(err)
		}
	}()

	in := os.Stdin
	if *path != "" {
		f, err := os.Open(*path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	t0 := time.Now()
	tr, err := trace.Read(in)
	if err != nil {
		fail(err)
	}
	vb.Debugf("[read trace in %v]", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("trace %q: %d devices (%d internal), %d contacts, window %s\n",
		tr.Name, tr.NumNodes(), tr.NumInternal(), len(tr.Contacts),
		export.FormatDuration(tr.Duration()))

	var bounds []int
	for _, part := range strings.Split(*hops, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, err := strconv.Atoi(part)
		if err != nil || k < 0 {
			cli.Usage("diameter", fmt.Sprintf("bad hop bound %q", part))
		}
		bounds = append(bounds, k)
	}
	bounds = append(bounds, analysis.Unbounded)

	hi := tr.Duration()
	if hi <= 0 {
		fail(fmt.Errorf("trace window is empty"))
	}
	// The paper presents budgets from 2 minutes up; shorter traces (e.g.
	// slot-based random models) get a proportional grid instead.
	lo := 120.0
	if lo >= hi/2 {
		lo = hi / 100
	}
	grid := stats.LogSpace(lo, hi, *points)

	if *approx {
		runApprox(tr, bounds, grid, *eps, *workers, ctx, vb)
		return
	}

	t0 = time.Now()
	st, err := analysis.NewStudy(tr, core.Options{Workers: *workers, Ctx: ctx})
	if err != nil {
		fail(err)
	}
	vb.Debugf("[paths computed in %v]", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("optimal paths computed: fixpoint at %d hops\n\n", st.Result.Hops)

	t0 = time.Now()
	cdfs := st.DelayCDFs(bounds, grid)
	vb.Debugf("[aggregated CDFs in %v]", time.Since(t0).Round(time.Millisecond))
	// Aggregations cut short by cancellation are incomplete; stop before
	// printing them.
	if err := st.Err(); err != nil {
		fail(err)
	}
	cols := make([]export.Column, len(cdfs))
	for i, c := range cdfs {
		name := fmt.Sprintf("<=%d hops", c.HopBound)
		if c.HopBound == analysis.Unbounded {
			name = "unbounded"
		}
		cols[i] = export.Column{Name: name, Ys: c.Success}
	}
	if err := export.Series(os.Stdout, "delay(s)", grid, cols); err != nil {
		fail(err)
	}

	d, worst := st.Diameter(*eps, grid)
	if err := st.Err(); err != nil {
		fail(err)
	}
	fmt.Printf("\n(1-eps)-diameter at eps=%g: %d hops (worst ratio %.4f)\n", *eps, d, worst)

	if *verify > 0 {
		if err := st.SelfCheck(*verify, uint64(*verify)+1); err != nil {
			fail(err)
		}
		fmt.Printf("self-check passed: %d random (source, time) points agree with flooding\n", *verify)
	}
	ks := st.DiameterAtDelay(*eps, grid)
	if err := st.Err(); err != nil {
		fail(err)
	}
	fmt.Println("\ndiameter per delay budget:")
	for i := 0; i < len(grid); i += 3 {
		fmt.Printf("  %-8s -> %d hops\n", export.FormatDuration(grid[i]), ks[i])
	}
}

// runApprox is the bounds-only mode: the reach tier's envelopes bracket
// every success curve, and DiameterBounds reports a certified interval
// for the (1−ε)-diameter — exact whenever the interval collapses. Each
// envelope build runs the exhaustive engine once (reach reads its
// slot-boundary delivery times off core's frontiers), so the mode does
// not save that computation.
func runApprox(tr *trace.Trace, bounds []int, grid []float64, eps float64, workers int, ctx context.Context, vb *cli.Verbosity) {
	if err := tr.Validate(); err != nil {
		fail(err)
	}
	t0 := time.Now()
	eng, err := reach.New(timeline.New(tr).All(), reach.Options{Workers: workers, Ctx: ctx})
	if err != nil {
		fail(err)
	}
	cols := make([]export.Column, 0, 2*len(bounds))
	for _, k := range bounds {
		lower, upper, err := eng.DeliveryBound(k, grid)
		if err != nil {
			fail(err)
		}
		name := fmt.Sprintf("<=%d hops", k)
		if k == analysis.Unbounded {
			name = "unbounded"
		}
		cols = append(cols,
			export.Column{Name: name + " lo", Ys: lower},
			export.Column{Name: name + " hi", Ys: upper})
	}
	vb.Debugf("[reachability envelopes built in %v]", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("certified success-curve envelopes (%d start-time slots, hop layers up to %d):\n",
		eng.Slots(), eng.MaxHops())
	if err := export.Series(os.Stdout, "delay(s)", grid, cols); err != nil {
		fail(err)
	}

	lo, hi, err := eng.DiameterBounds(eps, grid)
	if err != nil {
		fail(err)
	}
	switch {
	case lo == hi:
		fmt.Printf("\n(1-eps)-diameter at eps=%g: %d hops (certified exact, no exhaustive run needed)\n", eps, lo)
	case hi < 0:
		fmt.Printf("\n(1-eps)-diameter at eps=%g: >= %d hops (no upper certificate at %d slots; rerun without -approx for the exact answer)\n",
			eps, lo, eng.Slots())
	default:
		fmt.Printf("\n(1-eps)-diameter at eps=%g: between %d and %d hops (rerun without -approx for the exact answer)\n", eps, lo, hi)
	}
}

func fail(err error) {
	cli.Fail("diameter", err)
}
