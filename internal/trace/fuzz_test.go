package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTrace feeds arbitrary text to the trace parser: it must never
// panic, must reject non-finite and reversed contact times, and
// whatever it accepts must survive a Validate → Write → Read round trip
// unchanged. On inputs that declare "# nodes" and have no header line
// after the first contact, Stream (batch size 3) must accept exactly
// what Read accepts, with the same header and contacts in order.
func FuzzReadTrace(f *testing.F) {
	f.Add("# trace x\n# nodes 3\n0 1 0 5\n1 2 3 9\n")
	f.Add("0 1 0 5\n")
	f.Add("# external 1\n# nodes 2\n0 1 1e3 2e3\n")
	f.Add("# granularity 120\n# window 0 100\n")
	f.Add("garbage\n\n# nodes\n")
	f.Add("0 1 5 4\n")
	// Mutated headers and bodies around the hardened edges.
	f.Add("# nodes 2\n0 1 NaN 5\n")
	f.Add("# nodes 2\n0 1 0 Inf\n")
	f.Add("# window -Inf NaN\n0 1 0 5\n")
	f.Add("# granularity NaN\n")
	f.Add("# nodes 2\n0 1 9 5\n")
	f.Add("# trace\n# external -1\n0 1 1e308 1e309\n")
	f.Add("# nodes 2\n# window 10 0\n0 1 1 2\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Read(strings.NewReader(input))
		if streamComparable(input) {
			checkStreamMatchesRead(t, input, tr, err)
		}
		if err != nil {
			return
		}
		// Accepted traces must be valid and round-trippable.
		if err := tr.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid trace: %v", err)
		}
		for i, c := range tr.Contacts {
			if !finite(c.Beg) || !finite(c.End) || c.End < c.Beg {
				t.Fatalf("Read accepted bad contact %d: %+v", i, c)
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumNodes() != tr.NumNodes() || len(back.Contacts) != len(tr.Contacts) {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				back.NumNodes(), len(back.Contacts), tr.NumNodes(), len(tr.Contacts))
		}
		for i := range back.Contacts {
			if back.Contacts[i] != tr.Contacts[i] {
				t.Fatalf("round trip changed contact %d", i)
			}
		}
	})
}

// streamComparable reports whether input declares "# nodes" and has no
// header line after its first contact line: the inputs on which Stream
// and Read must agree. Lines are split and trimmed as both parsers do.
func streamComparable(input string) bool {
	nodes, body := false, false
	for _, line := range strings.Split(input, "\n") {
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		if !strings.HasPrefix(text, "#") {
			body = true
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(text, "#"))
		if len(fields) == 0 {
			continue
		}
		if body {
			return false
		}
		nodes = nodes || fields[0] == "nodes"
	}
	return nodes
}

// checkStreamMatchesRead streams input in batches of 3 and requires
// the outcome Read had: the same acceptance, and on acceptance the
// same header and the same contacts in order.
func checkStreamMatchesRead(t *testing.T, input string, tr *Trace, readErr error) {
	t.Helper()
	var h Header
	var got []Contact
	err := Stream(strings.NewReader(input), 3,
		func(hd Header) error { h = hd; return nil },
		func(b []Contact) error { got = append(got, b...); return nil })
	switch {
	case readErr == nil && err != nil:
		t.Fatalf("Stream rejects what Read accepts: %v", err)
	case readErr != nil && err == nil:
		t.Fatalf("Stream accepts what Read rejects: %v", readErr)
	case err != nil:
		return
	}
	streamed := &Trace{Name: h.Name, Granularity: h.Granularity, Start: h.Start, End: h.End, Kinds: h.Kinds()}
	if sh, rh := streamed.Header(), tr.Header(); !reflect.DeepEqual(sh, rh) {
		t.Fatalf("Stream header %+v, Read header %+v", sh, rh)
	}
	if len(got) != len(tr.Contacts) {
		t.Fatalf("Stream emitted %d contacts, Read kept %d", len(got), len(tr.Contacts))
	}
	for i := range got {
		if got[i] != tr.Contacts[i] {
			t.Fatalf("contact %d: Stream %+v, Read %+v", i, got[i], tr.Contacts[i])
		}
	}
}
