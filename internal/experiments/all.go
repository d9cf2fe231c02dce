package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"opportunet/internal/par"
)

// Experiment pairs a name with its runner, for dispatch by
// cmd/experiments.
type Experiment struct {
	Name        string
	Description string
	Run         func(*Config) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "characteristics of the four data sets", Table1},
		{"fig1", "phase transition function, short contacts", Figure1},
		{"fig2", "phase transition function, long contacts", Figure2},
		{"fig3", "hop-number of the delay-optimal path vs contact rate", Figure3},
		{"fig6", "next-contact step functions of six participants", Figure6},
		{"fig7", "CCDF of contact duration", Figure7},
		{"fig8", "delivery function of a multi-hop-only pair", Figure8},
		{"fig9", "delay CDFs per hop bound and diameters", Figure9},
		{"fig10", "random contact removal study", Figure10},
		{"fig11", "short-contact removal study", Figure11},
		{"fig12", "diameter as a function of delay", Figure12},
		{"phasecheck", "Monte Carlo check of Corollary 1", PhaseCheck},
		{"forwarding", "forwarding algorithms vs flooding", Forwarding},
		{"sizescaling", "delay-optimal paths vs network size (~ln N)", SizeScaling},
		{"renewal", "inter-contact distribution shapes (§3.4)", Renewal},
		{"heterogeneity", "community structure vs optimal paths (§7)", Heterogeneity},
		{"intercontact", "inter-contact time CCDFs of the data sets", InterContact},
		{"daynight", "day vs night starting times (§5.3.1)", DayNight},
		{"wlan", "campus WLAN co-association data set", WLAN},
		{"ttlsweep", "forwarding success vs TTL", TTLSweep},
		{"snapshots", "instantaneous contact-graph structure", Snapshots},
		{"epssweep", "diameter vs confidence level", EpsSweep},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}

// RunAll executes every experiment against the same Config (sharing the
// dataset cache), separating sections with blank lines. Independent
// experiments fan out across c.Workers goroutines; each writes to a
// private buffer and the buffers are emitted in paper order, as each
// becomes available — so the output is byte-identical to a serial run,
// and a cancelled run has already flushed every experiment that
// completed before the first incomplete one. On failure, the output of
// every experiment preceding the first failing one (in paper order) is
// still written, matching the serial fail-fast behavior; a cancelled
// run returns ctx.Err() regardless of worker count.
//
// With c.Checkpoint set, each experiment's buffer is committed to the
// store as it finishes (even past a failing experiment), and a rerun
// replays committed output instead of recomputing, so an interrupted
// `all` run resumes to a byte-identical final stream.
func RunAll(c *Config) error {
	return runExperiments(c, All())
}

// RunOne executes a single experiment with the same checkpoint
// semantics as RunAll: replay if committed, otherwise run, commit, and
// emit. Without a checkpoint store it just runs against c.Out.
func RunOne(c *Config, e Experiment) error {
	c.Progress.SetTotal(1)
	c.Progress.SetStage(e.Name)
	if c.Checkpoint == nil {
		err := runTimed(c, e, c)
		if err == nil {
			c.Progress.Step(1)
		}
		return err
	}
	fp := c.fingerprint(e.Name)
	if data, ok := c.Checkpoint.Load(fp); ok {
		c.logf("[%s: replayed from checkpoint %s]", e.Name, fp)
		expMetrics.replayed.Inc()
		c.Progress.Step(1)
		_, err := c.Out.Write(data)
		return err
	}
	var buf bytes.Buffer
	if err := runTimed(c, e, c.WithOutput(&buf)); err != nil {
		return err
	}
	c.Progress.Step(1)
	if err := c.Checkpoint.Commit(fp, buf.Bytes()); err != nil {
		return err
	}
	_, err := c.Out.Write(buf.Bytes())
	return err
}

// runTimed executes one experiment under its span and completion
// accounting: a span named experiment/<name> on c's span log, plus the
// completed/failed counters. cfg is the config the experiment actually
// runs against (it may write to a private buffer).
func runTimed(c *Config, e Experiment, cfg *Config) error {
	sp := c.Spans.Start("experiment/" + e.Name)
	err := e.Run(cfg)
	sp.End()
	if err != nil {
		expMetrics.failed.Inc()
	} else {
		expMetrics.completed.Inc()
	}
	return err
}

// Divider is the blank-line/rule/blank-line text RunAll writes before
// every experiment after the first in a combined stream.
const Divider = "\n================================================================\n\n"

// sectionSeparator writes the Divider.
func sectionSeparator(w io.Writer) error {
	_, err := io.WriteString(w, Divider)
	return err
}

// runExperiments is RunAll over an explicit experiment list.
func runExperiments(c *Config, exps []Experiment) error {
	n := len(exps)
	bufs := make([]*bytes.Buffer, n)
	cfgs := make([]*Config, n)
	fps := make([]string, n)
	outs := make([][]byte, n) // completed output, from this run or the checkpoint
	errs := make([]error, n)
	skipped := 0
	for i, e := range exps {
		bufs[i] = &bytes.Buffer{}
		cfgs[i] = c.WithOutput(bufs[i])
		if c.Checkpoint != nil {
			fps[i] = c.fingerprint(e.Name)
			if data, ok := c.Checkpoint.Load(fps[i]); ok {
				outs[i] = data
				skipped++
			}
		}
	}
	if skipped > 0 {
		c.logf("[checkpoint: %d/%d experiments already complete, skipped]", skipped, n)
		expMetrics.replayed.Add(int64(skipped))
	}
	c.Progress.SetTotal(n)
	c.Progress.Step(skipped)

	// Completed buffers are flushed to c.Out in paper order as they
	// become available: index i is emitted once every index before it
	// has been emitted. A failing or unfinished experiment therefore
	// cuts the stream exactly where a serial fail-fast run would.
	var mu sync.Mutex
	flushed := 0
	var writeErr error
	flush := func() {
		mu.Lock()
		defer mu.Unlock()
		for flushed < n && outs[flushed] != nil && writeErr == nil {
			if flushed > 0 {
				writeErr = sectionSeparator(c.Out)
			}
			if writeErr == nil {
				_, writeErr = c.Out.Write(outs[flushed])
			}
			flushed++
		}
	}
	flush() // replayed prefix, if any

	err := par.DoErrCtx(c.Ctx, n, c.Workers, func(i int) error {
		if outs[i] != nil { // replayed from the checkpoint
			return nil
		}
		c.Progress.SetStage(exps[i].Name)
		if err := runTimed(c, exps[i], cfgs[i]); err != nil {
			errs[i] = fmt.Errorf("%s: %w", exps[i].Name, err)
			return errs[i]
		}
		c.Progress.Step(1)
		b := bufs[i].Bytes()
		if c.Checkpoint != nil {
			if err := c.Checkpoint.Commit(fps[i], b); err != nil {
				errs[i] = fmt.Errorf("%s: %w", exps[i].Name, err)
				return errs[i]
			}
		}
		mu.Lock()
		outs[i] = b
		mu.Unlock()
		flush()
		return nil
	})
	flush()
	if err != nil {
		// A panic recovered by the pool carries its index; attribute it
		// to the experiment like any other failure.
		var pe *par.PanicError
		if errors.As(err, &pe) {
			return fmt.Errorf("%s: %w", exps[pe.Index].Name, err)
		}
		return err
	}
	return writeErr
}
