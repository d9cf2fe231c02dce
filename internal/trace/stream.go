package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Header is the metadata block of the line-oriented trace format: what
// the '#' lines carry, independent of the contact body. It is what a
// streaming consumer needs before the first contact arrives — window,
// granularity and the device table — and what Writer emits verbatim.
type Header struct {
	Name        string
	Granularity float64
	Start, End  float64
	Nodes       int // -1 when no "# nodes" header was present
	External    []int
}

// Header extracts the metadata block of an in-memory trace — what
// NewWriter needs to start serializing it.
func (t *Trace) Header() Header {
	h := Header{
		Name:        t.Name,
		Granularity: t.Granularity,
		Start:       t.Start,
		End:         t.End,
		Nodes:       t.NumNodes(),
	}
	for id, k := range t.Kinds {
		if k == External {
			h.External = append(h.External, id)
		}
	}
	return h
}

// Kinds expands the header's device table, or nil when the node count
// was absent. External IDs must be validated (checkExternal) first.
func (h Header) Kinds() []Kind {
	if h.Nodes < 0 {
		return nil
	}
	kinds := make([]Kind, h.Nodes)
	for _, id := range h.External {
		if id >= 0 && id < h.Nodes {
			kinds[id] = External
		}
	}
	return kinds
}

func (h Header) checkExternal() error {
	if h.Nodes < 0 {
		return nil
	}
	for _, id := range h.External {
		if id < 0 || id >= h.Nodes {
			return fmt.Errorf("trace: external id %d out of range (nodes=%d)", id, h.Nodes)
		}
	}
	return nil
}

// applyHeader folds one parsed '#' line into the header. fields is the
// whitespace-split line with the '#' stripped; the caller guarantees it
// is non-empty. Unknown header keys are ignored, like Read always has.
func applyHeader(h *Header, line int, fields []string) error {
	switch fields[0] {
	case "trace":
		if len(fields) > 1 {
			h.Name = fields[1]
		}
	case "granularity":
		if len(fields) != 2 {
			return fmt.Errorf("trace: line %d: malformed granularity header", line)
		}
		g, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || !finite(g) {
			return fmt.Errorf("trace: line %d: bad granularity %q", line, fields[1])
		}
		h.Granularity = g
	case "window":
		if len(fields) != 3 {
			return fmt.Errorf("trace: line %d: malformed window header", line)
		}
		a, err1 := strconv.ParseFloat(fields[1], 64)
		b, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || !finite(a) || !finite(b) {
			return fmt.Errorf("trace: line %d: malformed window values", line)
		}
		h.Start, h.End = a, b
	case "nodes":
		if len(fields) != 2 {
			return fmt.Errorf("trace: line %d: malformed nodes header", line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return fmt.Errorf("trace: line %d: bad node count %q", line, fields[1])
		}
		h.Nodes = n
	case "external":
		for _, f := range fields[1:] {
			id, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("trace: line %d: bad external id %q", line, f)
			}
			h.External = append(h.External, id)
		}
	}
	return nil
}

// ParseContactLine parses one "A B Beg End" body line, attributing
// errors to the given 1-based line number. This is the exact validation
// Read applies per contact line, exported so network feeds (the ingest
// line protocol) reject bad input with the same diagnostics.
func ParseContactLine(line int, text string) (Contact, error) {
	fields := strings.Fields(text)
	if len(fields) != 4 {
		return Contact{}, fmt.Errorf("trace: line %d: want 4 fields, got %d", line, len(fields))
	}
	a, err1 := strconv.Atoi(fields[0])
	b, err2 := strconv.Atoi(fields[1])
	beg, err3 := strconv.ParseFloat(fields[2], 64)
	end, err4 := strconv.ParseFloat(fields[3], 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return Contact{}, fmt.Errorf("trace: line %d: malformed contact %q", line, text)
	}
	if !finite(beg) || !finite(end) {
		return Contact{}, fmt.Errorf("trace: line %d: non-finite contact time in %q", line, text)
	}
	if end < beg {
		return Contact{}, fmt.Errorf("trace: line %d: contact ends before it begins (%g < %g)", line, end, beg)
	}
	return Contact{A: NodeID(a), B: NodeID(b), Beg: beg, End: end}, nil
}

// DefaultStreamBatch is the contact batch size Stream uses when the
// caller passes batchSize <= 0.
const DefaultStreamBatch = 4096

// Stream parses the trace format incrementally in bounded memory: at
// most one batch of contacts is alive at a time. The header callback
// fires exactly once, before the first emit (or at EOF for a body-less
// input); emit receives contacts in file order, in batches of at most
// batchSize (DefaultStreamBatch when <= 0). The batch slice is reused
// between calls — emit must copy anything it keeps, which appending to
// a timeline.Appender does. Either callback may be nil, and a non-nil
// callback error aborts the stream and is returned as-is.
//
// On an input that declares "# nodes" and has no header line after
// the first contact, Stream accepts exactly what Read accepts, with
// the same header and the same contacts in order (FuzzReadTrace checks
// both directions). Outside that class the differences are deliberate,
// forced by the bounded-memory contract: header lines are only honoured before
// the first contact (Read lets a late header override an early one; a
// streaming consumer has already acted on the header, so a late one is
// a hard error), and without a "# nodes" header the node count is
// reported as -1 instead of inferred from the body (Read infers it
// after buffering the whole file), so the device-range and external-ID
// checks, which need the count, are skipped. Per-line validation
// matches Read's. The checks Read makes after the whole body run
// earlier: external IDs and the window (end not before start) when the
// header completes, device-range and self-contact violations at the
// offending line. On an input with several faults the two may
// therefore report different ones.
func Stream(r io.Reader, batchSize int, header func(Header) error, emit func([]Contact) error) error {
	if batchSize <= 0 {
		batchSize = DefaultStreamBatch
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	h := Header{Nodes: -1}
	headerDone := false
	finishHeader := func() error {
		headerDone = true
		if err := h.checkExternal(); err != nil {
			return err
		}
		if h.End < h.Start {
			return fmt.Errorf("trace %q: window end %v before start %v", h.Name, h.End, h.Start)
		}
		if header != nil {
			return header(h)
		}
		return nil
	}
	batch := make([]Contact, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 || emit == nil {
			return nil
		}
		err := emit(batch)
		batch = batch[:0]
		return err
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(strings.TrimPrefix(text, "#"))
			if len(fields) == 0 {
				continue
			}
			if headerDone {
				return fmt.Errorf("trace: line %d: header %q after first contact in stream", line, fields[0])
			}
			if err := applyHeader(&h, line, fields); err != nil {
				return err
			}
			continue
		}
		if !headerDone {
			if err := finishHeader(); err != nil {
				return err
			}
		}
		c, err := ParseContactLine(line, text)
		if err != nil {
			return err
		}
		if h.Nodes >= 0 && (int(c.A) >= h.Nodes || int(c.B) >= h.Nodes || c.A < 0 || c.B < 0) {
			return fmt.Errorf("trace: line %d: contact references device out of range (%d, %d, n=%d)", line, c.A, c.B, h.Nodes)
		}
		if c.A == c.B {
			return fmt.Errorf("trace: line %d: self-contact on device %d", line, c.A)
		}
		batch = append(batch, c)
		if len(batch) >= batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			// The scanner stops before delivering the oversized line, so
			// the failure is on the line after the last one scanned.
			return fmt.Errorf("trace: line %d: %w", line+1, err)
		}
		return fmt.Errorf("trace: read: %w", err)
	}
	if !headerDone {
		if err := finishHeader(); err != nil {
			return err
		}
	}
	return flush()
}

// Writer emits the trace format incrementally: the header at
// construction, one contact per WriteContact, bytes identical to
// Trace.Write (which is implemented on top of it). A Writer keeps the
// first write error and reports it from every later call, so a long
// generation loop can defer error handling to the final Flush.
type Writer struct {
	bw  *bufio.Writer
	err error
}

// NewWriter starts the text serialization of a trace with the given
// header. A negative Nodes count suppresses the "# nodes" line (the
// reader will infer the count from the body).
func NewWriter(w io.Writer, h Header) *Writer {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace %s\n", h.Name)
	fmt.Fprintf(bw, "# granularity %g\n", h.Granularity)
	fmt.Fprintf(bw, "# window %g %g\n", h.Start, h.End)
	if h.Nodes >= 0 {
		fmt.Fprintf(bw, "# nodes %d\n", h.Nodes)
	}
	if len(h.External) > 0 {
		ext := make([]string, len(h.External))
		for i, id := range h.External {
			ext[i] = strconv.Itoa(id)
		}
		fmt.Fprintf(bw, "# external %s\n", strings.Join(ext, " "))
	}
	return &Writer{bw: bw}
}

// WriteContact appends one body line.
func (w *Writer) WriteContact(c Contact) error {
	if w.err != nil {
		return w.err
	}
	_, w.err = fmt.Fprintf(w.bw, "%d %d %g %g\n", c.A, c.B, c.Beg, c.End)
	return w.err
}

// Flush drains the buffer and returns the first error seen on any
// write, including the header lines.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}
