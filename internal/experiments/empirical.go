package experiments

import (
	"fmt"
	"math"

	"opportunet/internal/analysis"
	"opportunet/internal/export"
	"opportunet/internal/forward"
	"opportunet/internal/rng"
	"opportunet/internal/stats"
)

// fourDatasets lists the Table 1 data sets in paper order.
var fourDatasets = []string{Infocom05, Infocom06, HongKong, RealityMining}

// Table1 prints the characteristics of the four data sets.
func Table1(c *Config) error {
	fmt.Fprintln(c.Out, "Table 1 — characteristics of the four experimental data sets")
	rows := [][]string{}
	for _, name := range fourDatasets {
		if err := c.interrupted(); err != nil {
			return err
		}
		// Summaries are computed on the full generated trace (with
		// externals), not the internal-only view the figures use.
		tr, err := c.RawTrace(name)
		if err != nil {
			return err
		}
		s := analysis.Summarize(tr)
		rows = append(rows, []string{
			s.Name,
			export.FormatFloat(s.DurationDays),
			export.FormatFloat(s.Granularity),
			fmt.Sprintf("%d", s.InternalDevices),
			fmt.Sprintf("%d", s.InternalContacts),
			export.FormatFloat(s.InternalRate),
			fmt.Sprintf("%d", s.ExternalDevices),
			fmt.Sprintf("%d", s.ExternalContacts),
			export.FormatFloat(s.TotalRate),
		})
	}
	return export.Table(c.Out, []string{
		"data set", "days", "granularity(s)", "devices", "internal contacts",
		"rate(int/dev/day)", "ext devices", "ext contacts", "rate(all)",
	}, rows)
}

// Figure6 prints, for six representative participants from Hong-Kong,
// Reality Mining and Infocom05, the next-contact step function: at each
// departure time, when the device next sees any other device.
func Figure6(c *Config) error {
	fmt.Fprintln(c.Out, "Figure 6 — time of the next contact with any other device (six participants)")
	sets := []struct {
		name  string
		count int
	}{{HongKong, 2}, {RealityMining, 2}, {Infocom05, 2}}
	node := 1
	for _, s := range sets {
		if err := c.interrupted(); err != nil {
			return err
		}
		tl, err := c.Timeline(s.name)
		if err != nil {
			return err
		}
		v := tl.All()
		internal := v.InternalNodes()
		for i := 0; i < s.count; i++ {
			// Spread the picks across the device range for variety.
			dev := internal[(i*7+3)%len(internal)]
			pts := v.NextContactSeries(dev)
			// Summarize: total in-contact time, longest disconnection.
			inContact, longestGap := 0.0, 0.0
			for _, p := range pts {
				if p.At == p.From {
					inContact += p.To - p.From
				} else if gap := p.To - p.From; gap > longestGap {
					longestGap = gap
				}
			}
			fmt.Fprintf(c.Out, "node %d (%s, device %d): %d steps, in contact %s of %s, longest disconnection %s\n",
				node, s.name, dev, len(pts),
				export.FormatDuration(inContact), export.FormatDuration(v.Duration()),
				export.FormatDuration(longestGap))
			// Emit a compact sample of the step function (up to 12 rows).
			stride := len(pts)/12 + 1
			for j := 0; j < len(pts); j += stride {
				p := pts[j]
				fmt.Fprintf(c.Out, "  departure %s -> next arrival %s\n",
					export.FormatDuration(p.From), export.FormatDuration(p.At))
			}
			node++
		}
	}
	return nil
}

// Figure7 prints the CCDF of contact duration for the four data sets.
func Figure7(c *Config) error {
	fmt.Fprintln(c.Out, "Figure 7 — distribution (CCDF) of contact duration")
	grid := stats.LogSpace(60, 12*3600, 30)
	cols := make([]export.Column, 0, len(fourDatasets))
	for _, name := range fourDatasets {
		if err := c.interrupted(); err != nil {
			return err
		}
		tr, err := c.Trace(name)
		if err != nil {
			return err
		}
		var d stats.Dist
		for _, ct := range tr.Contacts {
			d.Add(ct.Duration())
		}
		ys := make([]float64, len(grid))
		for i, x := range grid {
			ys[i] = d.CCDF(x)
		}
		cols = append(cols, export.Column{Name: name, Ys: ys})
	}
	if err := export.Series(c.Out, "duration(s)", grid, cols); err != nil {
		return err
	}
	// The §5.2 headline numbers: single-slot fraction and >1h fraction.
	for _, name := range fourDatasets {
		tr, _ := c.Trace(name)
		single, hour := 0, 0
		for _, ct := range tr.Contacts {
			if ct.Duration() <= tr.Granularity+1e-9 {
				single++
			}
			if ct.Duration() > 3600 {
				hour++
			}
		}
		n := float64(len(tr.Contacts))
		fmt.Fprintf(c.Out, "%s: %.0f%% of contacts last one slot; %.2f%% exceed one hour\n",
			name, 100*float64(single)/n, 100*float64(hour)/n)
	}
	return nil
}

// Figure8 prints the delivery function of one Hong-Kong pair that needs
// at least 3 relays, for hop bounds 1..4 and unbounded: the paper's
// Figure 8, where the function is empty below 3 hops and identical at 4
// and infinity.
func Figure8(c *Config) error {
	st, err := c.Study(HongKong)
	if err != nil {
		return err
	}
	// The paper's pair needs 3 hops (i.e. paths exist at 3 hops, none
	// below). Fall back to nearby hop requirements if the generated
	// trace has no such pair.
	var ex *analysis.DeliveryExample
	for _, want := range []int{3, 4, 2} {
		if e, err := st.FindDeliveryExample(want, 4); err == nil {
			ex = e
			break
		}
	}
	if ex == nil {
		// A cancelled search looks like "no pair"; report the real cause.
		if err := c.interrupted(); err != nil {
			return err
		}
		return fmt.Errorf("experiments: no multi-hop-only pair found in %s", HongKong)
	}
	fmt.Fprintf(c.Out, "Figure 8 — delivery function for pair (%d -> %d) in Hong-Kong\n", ex.Src, ex.Dst)
	for i, k := range ex.HopBounds {
		f := ex.Frontiers[i]
		label := fmt.Sprintf("max hops = %d", k)
		if k == analysis.Unbounded {
			label = "max hops = inf"
		}
		if f.Empty() {
			fmt.Fprintf(c.Out, "%s: no path at any time\n", label)
			continue
		}
		fmt.Fprintf(c.Out, "%s: %d optimal paths (LD, EA pairs):\n", label, len(f.Entries))
		for _, e := range f.Entries {
			fmt.Fprintf(c.Out, "  depart by %-8s -> deliver at %-8s (%d hops)\n",
				export.FormatDuration(e.LD), export.FormatDuration(e.EA), e.Hop)
		}
	}
	return nil
}

// figure9Bounds are the hop-bound curves shown in Figure 9.
var figure9Bounds = []int{1, 2, 3, 4, 5, 6, analysis.Unbounded}

// Figure9 prints, for Infocom05, Reality Mining and Hong-Kong, the CDF
// of the optimal delay over all source-destination pairs and starting
// times, for increasing hop bounds, plus the 99% diameter.
func Figure9(c *Config) error {
	fmt.Fprintln(c.Out, "Figure 9 — CDF of the optimal transmission delay, all source-destination pairs")
	for _, name := range []string{Infocom05, RealityMining, HongKong} {
		if err := c.interrupted(); err != nil {
			return err
		}
		st, err := c.Study(name)
		if err != nil {
			return err
		}
		if err := printDelayCDFs(c, name, st); err != nil {
			return err
		}
	}
	return nil
}

// printDelayCDFs renders one dataset's Figure-9-style panel: the delay
// CDFs per hop bound and the diameter at ε and at 5ε.
func printDelayCDFs(c *Config, name string, st *analysis.Study) error {
	grid := delayGrid(st.View.Duration(), 40)
	cdfs := st.DelayCDFs(figure9Bounds, grid)
	cols := make([]export.Column, len(cdfs))
	for i, cdf := range cdfs {
		label := fmt.Sprintf("<=%d hops", cdf.HopBound)
		if cdf.HopBound == analysis.Unbounded {
			label = "unbounded"
		}
		cols[i] = export.Column{Name: label, Ys: cdf.Success}
	}
	fmt.Fprintf(c.Out, "\n%s (window %s, %d internal devices, %d contacts)\n",
		name, export.FormatDuration(st.View.Duration()), st.View.NumInternal(), st.View.NumContacts())
	if err := export.Series(c.Out, "delay", grid, cols); err != nil {
		return err
	}
	eps := c.Epsilon()
	d1, worst := st.Diameter(eps, grid)
	d5, _ := st.Diameter(5*eps, grid)
	// Aggregations cut short by cancellation yield incomplete values;
	// fail the experiment instead of printing them.
	if err := st.Err(); err != nil {
		return err
	}
	fmt.Fprintf(c.Out, "diameter at %.0f%%: %d hops (worst hop-%d ratio %.4f); at %.0f%%: %d hops\n",
		100*(1-eps), d1, d1, worst, 100*(1-5*eps), d5)
	return nil
}

// figure10Bounds are the curves of Figures 10 and 11.
var figure10Bounds = []int{1, 2, 3, 5, analysis.Unbounded}

// Figure10 applies random contact removal to the second day of Infocom06
// (keep all, keep 10%, keep 1%) and prints the resulting delay CDFs
// (averaged over 5 independent removals) and diameters.
func Figure10(c *Config) error {
	fmt.Fprintln(c.Out, "Figure 10 — random contact removal, Infocom06 day 2")
	tl, err := c.Timeline(Infocom06Day2)
	if err != nil {
		return err
	}
	grid := stats.LogSpace(120, tl.All().Duration(), 30)
	reps := 5
	if c.Quick {
		reps = 3
	}
	eps := c.Epsilon()
	for _, p := range []float64{0, 0.9, 0.99} {
		if err := c.interrupted(); err != nil {
			return err
		}
		var cdfs []analysis.DelayCDF
		var diams []int
		if p == 0 {
			st, err := c.Study(Infocom06Day2)
			if err != nil {
				return err
			}
			cdfs = st.DelayCDFs(figure10Bounds, grid)
			d, _ := st.Diameter(eps, grid)
			if err := st.Err(); err != nil {
				return err
			}
			diams = []int{d}
		} else {
			cdfs, diams, err = analysis.RandomRemovalStudyView(tl.All(), p, reps, c.Seed+uint64(p*100), c.coreOptions(), figure10Bounds, grid, eps)
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(c.Out, "\nremoval probability p=%.2f (%.0f%% of contacts remaining)\n", p, 100*(1-p))
		cols := make([]export.Column, len(cdfs))
		for i, cdf := range cdfs {
			label := fmt.Sprintf("<=%d hops", cdf.HopBound)
			if cdf.HopBound == analysis.Unbounded {
				label = "unbounded"
			}
			cols[i] = export.Column{Name: label, Ys: cdf.Success}
		}
		if err := export.Series(c.Out, "delay", grid, cols); err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "diameters at %.0f%%: %v\n", 100*(1-eps), diams)
	}
	return nil
}

// Figure11 removes short contacts from Infocom06 day 2 (thresholds 2, 10
// and 30 minutes) and prints the resulting delay CDFs, removed
// fractions, and diameters — showing that losing short contacts grows
// the diameter even while long contacts preserve small-delay paths.
func Figure11(c *Config) error {
	fmt.Fprintln(c.Out, "Figure 11 — removal of short contacts, Infocom06 day 2")
	tl, err := c.Timeline(Infocom06Day2)
	if err != nil {
		return err
	}
	grid := stats.LogSpace(120, tl.All().Duration(), 30)
	eps := c.Epsilon()
	for _, thr := range []float64{121, 601, 1801} {
		if err := c.interrupted(); err != nil {
			return err
		}
		st, removed, err := analysis.DurationThresholdStudyView(tl.All(), thr, c.coreOptions())
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "\ncontacts longer than %s only (%.0f%% of contacts removed)\n",
			export.FormatDuration(thr-1), 100*removed)
		cdfs := st.DelayCDFs(figure10Bounds, grid)
		cols := make([]export.Column, len(cdfs))
		for i, cdf := range cdfs {
			label := fmt.Sprintf("<=%d hops", cdf.HopBound)
			if cdf.HopBound == analysis.Unbounded {
				label = "unbounded"
			}
			cols[i] = export.Column{Name: label, Ys: cdf.Success}
		}
		if err := export.Series(c.Out, "delay", grid, cols); err != nil {
			return err
		}
		d, _ := st.Diameter(eps, grid)
		if err := st.Err(); err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "diameter at %.0f%%: %d hops\n", 100*(1-eps), d)
	}
	return nil
}

// Figure12 prints the diameter as a function of the delay budget for
// Infocom06 day 2, original and with only contacts above 10 and 30
// minutes: decreasing with delay at high contact rate, increasing at low
// (the paper's Figure 12).
func Figure12(c *Config) error {
	fmt.Fprintln(c.Out, "Figure 12 — diameter as a function of delay, Infocom06 day 2")
	tl, err := c.Timeline(Infocom06Day2)
	if err != nil {
		return err
	}
	grid := stats.LogSpace(120, math.Min(12*3600, tl.All().Duration()), 16)
	eps := c.Epsilon()
	cols := []export.Column{}
	base, err := c.Study(Infocom06Day2)
	if err != nil {
		return err
	}
	variants := []struct {
		label string
		study *analysis.Study
	}{{"infocom06", base}}
	for _, thr := range []float64{601, 1801} {
		st, _, err := analysis.DurationThresholdStudyView(tl.All(), thr, c.coreOptions())
		if err != nil {
			return err
		}
		variants = append(variants, struct {
			label string
			study *analysis.Study
		}{fmt.Sprintf("contacts>%s", export.FormatDuration(thr-1)), st})
	}
	for _, v := range variants {
		ks := v.study.DiameterAtDelay(eps, grid)
		if err := v.study.Err(); err != nil {
			return err
		}
		ys := make([]float64, len(ks))
		for i, k := range ks {
			ys[i] = float64(k)
		}
		cols = append(cols, export.Column{Name: v.label, Ys: ys})
	}
	return export.Series(c.Out, "delay", grid, cols)
}

// TTLSweep traces each forwarding algorithm's success rate as the delay
// budget grows on the Infocom05 data set: the gap between hop-limited
// and unbounded epidemic stays negligible at every TTL, while the
// restricted schemes converge only slowly — the §7 implication across
// time scales.
func TTLSweep(c *Config) error {
	fmt.Fprintln(c.Out, "Forwarding success vs TTL — Infocom05")
	tl, err := c.Timeline(Infocom05)
	if err != nil {
		return err
	}
	msgs := 250
	if c.Quick {
		msgs = 100
	}
	ev := forward.NewEvaluatorView(tl.All())
	algos := ev.StandardAlgorithms(6)
	ttls := []float64{600, 3600, 3 * 3600, 6 * 3600, 12 * 3600, 24 * 3600}
	cols := make([]export.Column, len(algos))
	for i := range cols {
		cols[i] = export.Column{Name: algos[i].Name, Ys: make([]float64, len(ttls))}
	}
	r := rng.New(c.Seed + 99)
	for ti, ttl := range ttls {
		if err := c.interrupted(); err != nil {
			return err
		}
		res, err := forward.Evaluate(ev, algos, msgs, ttl, r.Split())
		if err != nil {
			return err
		}
		for i, s := range res {
			cols[i].Ys[ti] = s.SuccessRate
		}
	}
	return export.Series(c.Out, "ttl(s)", ttls, cols)
}

// Forwarding evaluates the §7 design implication on every data set:
// hop-limited epidemic forwarding with the limit set near the measured
// diameter loses only marginal success rate against unbounded flooding,
// while direct/two-hop/spray schemes trade delay for copies.
func Forwarding(c *Config) error {
	fmt.Fprintln(c.Out, "Forwarding evaluation — success within TTL, all algorithms")
	msgs := 400
	if c.Quick {
		msgs = 150
	}
	r := rng.New(c.Seed + 7)
	for _, name := range fourDatasets {
		if err := c.interrupted(); err != nil {
			return err
		}
		tl, err := c.Timeline(name)
		if err != nil {
			return err
		}
		v := tl.All()
		ttl := math.Min(6*3600, v.Duration()/4)
		ev := forward.NewEvaluatorView(v)
		res, err := forward.Evaluate(ev, ev.StandardAlgorithms(6), msgs, ttl, r.Split())
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "\n%s (TTL %s, %d messages)\n", name, export.FormatDuration(ttl), msgs)
		rows := [][]string{}
		for _, s := range res {
			rows = append(rows, []string{
				s.Name,
				export.FormatFloat(s.SuccessRate),
				export.FormatDuration(s.MeanDelay),
				export.FormatFloat(s.MeanCopies),
			})
		}
		if err := export.Table(c.Out, []string{"algorithm", "success", "mean delay", "mean copies"}, rows); err != nil {
			return err
		}
	}
	return nil
}
