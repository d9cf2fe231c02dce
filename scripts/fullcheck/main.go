// Command fullcheck pins the full (paper-scale) experiment suite to the
// committed full_results.txt, the stdout of `experiments all` at the
// default seed and ε. It runs each named experiment in full mode through
// experiments.RunOne and compares its output, byte for byte, with the
// experiment's section of the file: sections are split on RunAll's
// divider and numbered in experiments.All() order. Each experiment runs
// on a fresh Config, so its datasets are freed before the next one.
//
// Usage, from the repository root:
//
//	go run ./scripts/fullcheck forwarding ttlsweep
//	go run ./scripts/fullcheck    # the whole suite, ~1.5 min and ~3 GiB on 2 cores
//
// Prints one line per matching experiment; exits 1 at the first
// experiment whose output differs, naming its first differing line.
package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"opportunet/internal/experiments"
)

const results = "full_results.txt"

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fullcheck: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	data, err := os.ReadFile(results)
	if err != nil {
		fail("%v", err)
	}
	all := experiments.All()
	sections := strings.Split(string(data), experiments.Divider)
	if len(sections) != len(all) {
		fail("%s has %d sections, want one per experiment (%d)", results, len(sections), len(all))
	}
	want := make(map[string]int, len(all))
	for i, e := range all {
		want[e.Name] = i
	}
	names := os.Args[1:]
	if len(names) == 0 {
		for _, e := range all {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		if _, ok := want[name]; !ok {
			fail("unknown experiment %q", name)
		}
	}

	for _, name := range names {
		i := want[name]
		var buf bytes.Buffer
		start := time.Now()
		cfg := &experiments.Config{Seed: 1}
		if err := experiments.RunOne(cfg.WithOutput(&buf), all[i]); err != nil {
			fail("%s: %v", name, err)
		}
		if got := buf.String(); got != sections[i] {
			line, g, w := firstDiff(got, sections[i])
			fail("%s differs from section %d of %s at line %d:\n  got:  %q\n  want: %q", name, i+1, results, line, g, w)
		}
		fmt.Printf("%s matches section %d of %s (%.1f s)\n", name, i+1, results, time.Since(start).Seconds())
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, with both lines ("" past the end of either text).
func firstDiff(got, want string) (int, string, string) {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl
		}
	}
}
