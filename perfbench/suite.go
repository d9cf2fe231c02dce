package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"opportunet/internal/experiments"
	"opportunet/internal/obs"
)

// The suite workload: experiments.RunAll in quick mode with workers =
// nproc — the command researchers run to regenerate every exhibit. It
// is the only workload that runs forward, randtemp, mobility and the
// experiment fan-out.
var (
	suiteDatasets = []string{experiments.Infocom05, experiments.Infocom06, experiments.Infocom06Day2, experiments.HongKong, experiments.RealityMining}
	suiteStudied  = []string{experiments.Infocom05, experiments.Infocom06Day2, experiments.HongKong, experiments.RealityMining}
)

// suiteInputs generates every quick dataset once on a throwaway Config:
// the generator's share of the suite, paid here as set-up and warm-up.
func suiteInputs(seed uint64) (contacts int, err error) {
	cfg := &experiments.Config{Quick: true, Seed: seed}
	for _, name := range suiteDatasets {
		tr, err := cfg.Trace(name)
		if err != nil {
			return 0, err
		}
		contacts += len(tr.Contacts)
	}
	return contacts, nil
}

// suiteSeeds are the seeds one pass runs the suite with: one suite's
// cost moves about ±7% with its seed, and two average that out.
func suiteSeeds(seed uint64) []uint64 { return []uint64{seed, seed + 1<<32} }

// checkDigest keeps the first output digest seen for a suite seed in the
// checkout, so every later run of the same seed must reproduce it.
func checkDigest(o *outcome, dir string, seed uint64, digest string) error {
	path := filepath.Join(dir, fmt.Sprintf("digest-%d", seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		o.check(strings.TrimSpace(string(prev)) == digest)
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(path, []byte(digest+"\n"), 0o644)
	default:
		return err
	}
	return nil
}

func runSuite(r *run) (*outcome, error) {
	o := newOutcome()
	seeds := suiteSeeds(r.seed)
	var setups []float64
	contacts := 0
	for i := 0; i < setupRepeats; i++ {
		var err error
		setups = append(setups, timed(func() {
			contacts = 0
			for _, seed := range seeds {
				var n int
				if n, err = suiteInputs(seed); err != nil {
					return
				}
				contacts += n
			}
		}))
		if err != nil {
			return nil, err
		}
	}
	exps := experiments.All()
	digests := make(map[uint64][]string)
	var suiteS []float64 // seconds of each RunAll
	// pass runs the whole suite once per suite seed.
	pass := func() error {
		for _, seed := range seeds {
			var buf bytes.Buffer
			var err error
			suiteS = append(suiteS, timed(func() {
				err = experiments.RunAll(&experiments.Config{Out: &buf, Seed: seed, Quick: true, Workers: r.nproc})
			}))
			// RunAll stops at the first failing experiment: count all as
			// attempted and the failure once.
			o.attempted += int64(len(exps)) - 1
			o.op(err)
			if err != nil {
				return err
			}
			sum := sha256.Sum256(buf.Bytes())
			digests[seed] = append(digests[seed], hex.EncodeToString(sum[:]))
		}
		return nil
	}

	if !r.traced {
		walls, err := r.repeat(pass)
		if err != nil {
			return nil, err
		}
		// The suite's one user-visible operation is the whole RunAll:
		// per-experiment times inside the fan-out depend on which
		// experiment first asks for a shared dataset study, so they swing
		// run to run even on one seed.
		o.metrics["setup_s"] = median(setups)
		o.metrics["wall_s"] = median(walls)
		o.metrics["op_p50_ms"] = 1e3 * quantile(suiteS, 0.5)
		o.metrics["op_p90_ms"] = 1e3 * quantile(suiteS, 0.9)
		o.metrics["rate_per_s"] = float64(len(seeds)*len(exps)) / median(walls)
	} else {
		var err error
		plain := timed(func() { err = pass() })
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		obs.Wire(reg)
		traced := timed(func() {
			for _, seed := range seeds {
				cfg := &experiments.Config{Out: io.Discard, Seed: seed, Quick: true, Workers: r.nproc}
				for _, name := range suiteDatasets {
					o.metrics["tracegen.generate_s"] += timed(func() { _, err := cfg.Trace(name); o.op(err) })
				}
				for _, name := range suiteStudied {
					o.metrics["analysis.dataset_study_s"] += timed(func() { _, err := cfg.Study(name); o.op(err) })
				}
				for _, e := range exps {
					o.metrics["experiments."+e.Name+"_s"] += timed(func() { o.op(experiments.RunOne(cfg, e)) })
				}
			}
		})
		obs.Wire(nil)
		o.metrics["par.busy_frac"] = ratio(counter(reg, "par_worker_busy_ns_total")/1e9, traced*float64(r.nproc))
		o.metrics["tracing.overhead_s"] = traced - plain
		o.metrics["tracing.overhead_p50_ms"] = 1e3 * (traced - plain) / float64(len(seeds))
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		o.metrics["mem.peak_rss_mb"] = rss
	}
	for _, seed := range seeds {
		ds := digests[seed]
		for _, d := range ds[1:] {
			o.check(d == ds[0])
		}
		if err := checkDigest(o, r.dir, seed, ds[0]); err != nil {
			return nil, err
		}
		fmt.Printf("suite seed %d output digest %s\n", seed, ds[0])
	}
	o.sizef("suites=%d datasets=%d contacts=%d experiments=%d workers=%d", len(seeds), len(suiteDatasets), contacts, len(exps), r.nproc)
	return o, nil
}
