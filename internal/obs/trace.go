package obs

// Request-scoped tracing. The run-wide layer in this package (counters,
// histograms, spans) answers "how is the system doing"; a Trace answers
// "what happened to THIS request": a typed event list with monotonic
// timestamps covering the request's path through admission, coalescing,
// computation and encoding, plus the attribution fields an access log
// needs (status, disposition, stage durations, bytes).
//
// The same contract as the metric handles applies:
//
//   - Everything is nil-safe. A nil *Tracer hands out nil *Traces, and
//     every method on a nil *Trace is a one-branch no-op, so the serving
//     pipeline never checks an "enabled" flag and a disabled daemon
//     stays provably allocation-free (pinned by AllocsPerRun tests).
//   - A Trace is pooled and fixed-capacity: starting, annotating and
//     finishing one allocates nothing in steady state. Event capacity
//     overflow drops events (counted), never grows.
//   - Tracing only ever reads computation state; response bytes are
//     identical with tracing on or off.
//
// The Recorder is the flight recorder: a lock-cheap ring buffer of the
// last N completed traces with tail-biased retention — a firehose of
// healthy requests can never evict the interesting tail, because
// errors and sheds are retained in their own ring and the slowest trace
// per endpoint is always kept.

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceEventKind enumerates the typed events a request can record.
type TraceEventKind uint8

const (
	// TraceStart marks the pipeline picking the request up.
	TraceStart TraceEventKind = iota + 1
	// TraceEnqueue marks admission parking the request in the wait
	// queue (recorded only when no execution slot was free).
	TraceEnqueue
	// TraceAcquire marks admission granting an execution slot.
	TraceAcquire
	// TraceLeader marks the request leading a coalesced computation.
	TraceLeader
	// TraceFollower marks the request attaching to an identical
	// in-flight computation instead of recomputing.
	TraceFollower
	// TraceComputeStart / TraceComputeEnd bracket the engine work.
	TraceComputeStart
	TraceComputeEnd
	// TraceEncodeStart marks serialization beginning; TraceWrite marks
	// the response bytes handed to the socket (Arg = byte count).
	TraceEncodeStart
	TraceWrite
	// TraceAppend marks one ingested contact batch (Arg = contacts).
	TraceAppend
	// TraceSealed marks the segmented timeline sealing and publishing
	// an immutable snapshot for the epoch.
	TraceSealed
	// TraceCompact marks window maintenance — eviction / segment
	// compaction — after an epoch (Arg = contacts dropped).
	TraceCompact
	numTraceEventKinds
)

var traceEventNames = [numTraceEventKinds]string{
	TraceStart:        "start",
	TraceEnqueue:      "enqueue",
	TraceAcquire:      "acquire",
	TraceLeader:       "leader",
	TraceFollower:     "follower",
	TraceComputeStart: "compute-start",
	TraceComputeEnd:   "compute-end",
	TraceEncodeStart:  "encode-start",
	TraceWrite:        "write",
	TraceAppend:       "append",
	TraceSealed:       "snapshot",
	TraceCompact:      "compact",
}

// String returns the stable wire name of the event kind.
func (k TraceEventKind) String() string {
	if k < numTraceEventKinds {
		return traceEventNames[k]
	}
	return "unknown"
}

// Disposition classifies how a request ended.
type Disposition uint8

const (
	DispOK Disposition = iota
	DispShed
	DispError
	numDispositions
)

var dispositionNames = [numDispositions]string{"ok", "shed", "error"}

// String returns the stable wire name of the disposition.
func (d Disposition) String() string {
	if d < numDispositions {
		return dispositionNames[d]
	}
	return "unknown"
}

// ParseDisposition maps a wire name back to its Disposition; ok is
// false for unknown names.
func ParseDisposition(s string) (Disposition, bool) {
	for d, name := range dispositionNames {
		if s == name {
			return Disposition(d), true
		}
	}
	return 0, false
}

// TraceEvent is one timestamped occurrence inside a request.
type TraceEvent struct {
	Kind TraceEventKind
	// At is nanoseconds since the trace started (monotonic by
	// construction: events are appended in real time).
	At int64
	// Arg carries the event's integer payload (bytes written, contacts
	// appended); 0 when the kind has none.
	Arg int64
}

// Capacity limits keeping a Trace a fixed-size, pool-friendly value.
const (
	// TraceIDCap bounds the trace ID bytes retained; longer client-sent
	// IDs are truncated.
	TraceIDCap = 64
	// traceEventCap bounds the event list; excess events are dropped
	// and counted, never grown.
	traceEventCap = 16
)

// Trace is one request's flight record. Create with Tracer.Start, fill
// in the attribution fields, record events, then hand it to
// Tracer.Finish. All methods are nil-safe no-ops, so instrumented code
// paths need no enabled-checks. A Trace is not safe for concurrent use;
// one request owns it.
type Trace struct {
	// Endpoint names the operation ("path", "diameter", "epoch"); use
	// static strings so assignment never allocates.
	Endpoint string
	// Dataset names the target dataset/stream (a shared string).
	Dataset string
	// Status is the HTTP status (or 0 where that makes no sense).
	Status int
	// Disposition classifies the outcome.
	Disposition Disposition
	// QueueNS, ComputeNS, EncodeNS attribute the request's time to the
	// pipeline stages; TotalNS is end-to-end from Start.
	QueueNS, ComputeNS, EncodeNS, TotalNS int64
	// DeadlineNS is the budget the request carried (0 = none);
	// DeadlineUsedNS how much of it elapsed by completion.
	DeadlineNS, DeadlineUsedNS int64
	// Bytes is the response body size.
	Bytes int64

	start   time.Time
	wall    int64 // UnixNano at Start, for the access log
	idLen   int
	id      [TraceIDCap]byte
	n       int
	dropped int
	events  [traceEventCap]TraceEvent
}

// reset clears a pooled trace for reuse.
func (t *Trace) reset() {
	*t = Trace{}
}

// SetID copies id (truncated to TraceIDCap bytes) as the trace ID
// without retaining or allocating a string. Nil-safe.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.idLen = copy(t.id[:], id)
}

// ID returns the trace ID bytes (aliasing the trace's own buffer —
// copy before the trace is finished if retention is needed). Nil-safe.
func (t *Trace) ID() []byte {
	if t == nil {
		return nil
	}
	return t.id[:t.idLen]
}

// Start returns when the trace began (zero on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// WallNS returns the UnixNano timestamp of Start (0 on nil).
func (t *Trace) WallNS() int64 {
	if t == nil {
		return 0
	}
	return t.wall
}

// Since returns nanoseconds since the trace started (0 on nil) — the
// clock every event timestamp is measured on.
func (t *Trace) Since() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.start))
}

// Event records kind at the current offset. Nil-safe; never allocates.
func (t *Trace) Event(kind TraceEventKind) { t.EventArg(kind, 0) }

// EventArg records kind with an integer payload. Beyond the fixed event
// capacity events are dropped (and counted), never grown. Nil-safe.
func (t *Trace) EventArg(kind TraceEventKind, arg int64) {
	if t == nil {
		return
	}
	if t.n >= traceEventCap {
		t.dropped++
		return
	}
	t.events[t.n] = TraceEvent{Kind: kind, At: int64(time.Since(t.start)), Arg: arg}
	t.n++
}

// Events returns the recorded events (aliasing the trace's buffer).
// Nil-safe.
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	return t.events[:t.n]
}

// Dropped returns how many events overflowed the fixed capacity.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Tracer hands out pooled Traces and retires them into the flight
// recorder. A nil *Tracer is the disabled state: Start returns nil and
// the nil Trace absorbs everything downstream for free.
type Tracer struct {
	pool sync.Pool
	rec  *Recorder
	seq  atomic.Uint64
	seed uint64
}

// NewTracer returns a tracer retiring finished traces into rec (which
// may be nil to trace without retention — access-log only).
func NewTracer(rec *Recorder) *Tracer {
	return &Tracer{
		pool: sync.Pool{New: func() any { return new(Trace) }},
		rec:  rec,
		// The seed makes generated IDs distinct across daemon restarts;
		// uniqueness within a run comes from the sequence number.
		seed: uint64(time.Now().UnixNano()),
	}
}

// Recorder returns the tracer's flight recorder (nil when detached).
func (tr *Tracer) Recorder() *Recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

const hexdig = "0123456789abcdef"

// Start begins a trace for the named operation with a freshly generated
// ID (use Trace.SetID afterwards to adopt a caller-provided one).
// Returns nil — the free disabled path — on a nil tracer.
func (tr *Tracer) Start(endpoint string) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.reset()
	t.Endpoint = endpoint
	now := time.Now()
	t.start = now
	t.wall = now.UnixNano()
	// 16 hex chars of a SplitMix64 step over (seed, seq): unique within
	// the run, unpredictable enough across runs, and allocation-free.
	x := tr.seed + 0x9e3779b97f4a7c15*tr.seq.Add(1)
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	for i := 15; i >= 0; i-- {
		t.id[i] = hexdig[z&0xF]
		z >>= 4
	}
	t.idLen = 16
	t.Event(TraceStart)
	return t
}

// Finish stamps the total, retires the trace into the flight recorder,
// and returns it to the pool. The trace must not be used afterwards.
// Nil-safe on both receiver and argument.
func (tr *Tracer) Finish(t *Trace) {
	if tr == nil || t == nil {
		return
	}
	if t.TotalNS == 0 {
		t.TotalNS = int64(time.Since(t.start))
	}
	tr.rec.Record(t)
	tr.pool.Put(t)
}

// ---- flight recorder ------------------------------------------------

// recorderEndpointCap bounds the slowest-per-endpoint table; real
// deployments have a handful of endpoints.
const recorderEndpointCap = 8

// Recorder is the flight recorder: completed traces land in a ring of
// the last N, with tail-biased retention on top —
//
//   - every non-ok trace (shed, error) also lands in a second ring of
//     the same capacity, so a firehose of healthy requests cannot
//     flush the failures out;
//   - the slowest trace seen per endpoint is always kept.
//
// Recording is a mutex plus a fixed-size struct copy — no allocation,
// cheap enough for the warm serving path. Snapshots (the /debug/requests
// view) allocate freely; they run on the operator's request, not the
// serving path.
type Recorder struct {
	mu      sync.Mutex
	all     []Trace // ring, capacity N
	allN    int     // valid prefix while filling
	next    int
	kept    []Trace // non-ok ring
	keptN   int
	keptNxt int
	slowest [recorderEndpointCap]Trace
	slowN   int
}

// NewRecorder returns a flight recorder retaining the last n completed
// traces (plus the retention tail). n < 1 is clamped to 1.
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{all: make([]Trace, n), kept: make([]Trace, n)}
}

// Record retires one completed trace. Nil-safe on both sides.
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.all[r.next] = *t
	r.next = (r.next + 1) % len(r.all)
	if r.allN < len(r.all) {
		r.allN++
	}
	if t.Disposition != DispOK {
		r.kept[r.keptNxt] = *t
		r.keptNxt = (r.keptNxt + 1) % len(r.kept)
		if r.keptN < len(r.kept) {
			r.keptN++
		}
	}
	for i := 0; i < r.slowN; i++ {
		if r.slowest[i].Endpoint == t.Endpoint {
			if t.TotalNS > r.slowest[i].TotalNS {
				r.slowest[i] = *t
			}
			r.mu.Unlock()
			return
		}
	}
	if r.slowN < recorderEndpointCap {
		r.slowest[r.slowN] = *t
		r.slowN++
	}
	r.mu.Unlock()
}

// TraceEventSnapshot is the exported (JSON-ready) form of one event.
type TraceEventSnapshot struct {
	Kind string `json:"ev"`
	AtNS int64  `json:"at_ns"`
	Arg  int64  `json:"arg,omitempty"`
}

// TraceSnapshot is the exported form of one completed trace, the unit
// /debug/requests serves.
type TraceSnapshot struct {
	ID             string               `json:"trace_id"`
	Endpoint       string               `json:"endpoint"`
	Dataset        string               `json:"dataset,omitempty"`
	Status         int                  `json:"status,omitempty"`
	Disposition    string               `json:"disposition"`
	StartUnixNS    int64                `json:"start_unix_ns"`
	TotalNS        int64                `json:"total_ns"`
	QueueNS        int64                `json:"queue_ns"`
	ComputeNS      int64                `json:"compute_ns"`
	EncodeNS       int64                `json:"encode_ns"`
	DeadlineNS     int64                `json:"deadline_ns,omitempty"`
	DeadlineUsedNS int64                `json:"deadline_used_ns,omitempty"`
	Bytes          int64                `json:"bytes,omitempty"`
	DroppedEvents  int                  `json:"dropped_events,omitempty"`
	Events         []TraceEventSnapshot `json:"events"`
}

// Snapshot converts a trace to its exported (JSON-ready) form. It
// allocates — callers are cold paths (slow-request dumps, the
// /debug/requests view). Nil-safe (zero value on nil).
func (t *Trace) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	s := TraceSnapshot{
		ID:             string(t.id[:t.idLen]),
		Endpoint:       t.Endpoint,
		Dataset:        t.Dataset,
		Status:         t.Status,
		Disposition:    t.Disposition.String(),
		StartUnixNS:    t.wall,
		TotalNS:        t.TotalNS,
		QueueNS:        t.QueueNS,
		ComputeNS:      t.ComputeNS,
		EncodeNS:       t.EncodeNS,
		DeadlineNS:     t.DeadlineNS,
		DeadlineUsedNS: t.DeadlineUsedNS,
		Bytes:          t.Bytes,
		DroppedEvents:  t.dropped,
		Events:         make([]TraceEventSnapshot, t.n),
	}
	for i, ev := range t.events[:t.n] {
		s.Events[i] = TraceEventSnapshot{Kind: ev.Kind.String(), AtNS: ev.At, Arg: ev.Arg}
	}
	return s
}

// TraceFilter narrows a Recorder snapshot. Zero values match
// everything.
type TraceFilter struct {
	// Endpoint, when non-empty, keeps only traces of that endpoint.
	Endpoint string
	// Disposition, when non-empty, keeps only traces whose disposition
	// name matches ("ok", "shed", "error").
	Disposition string
	// Limit caps the returned traces (0 = no cap).
	Limit int
}

func (f TraceFilter) match(t *Trace) bool {
	if f.Endpoint != "" && t.Endpoint != f.Endpoint {
		return false
	}
	if f.Disposition != "" && t.Disposition.String() != f.Disposition {
		return false
	}
	return true
}

// Snapshot returns the retained traces matching f, newest first, with
// the retention tail (slowest-per-endpoint, non-ok ring) merged in and
// duplicates (same trace ID) removed. Nil-safe (nil on a nil recorder).
func (r *Recorder) Snapshot(f TraceFilter) []TraceSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, r.allN+r.keptN+r.slowN)
	var out []TraceSnapshot
	add := func(t *Trace) {
		if t.idLen == 0 && t.Endpoint == "" {
			return
		}
		if !f.match(t) {
			return
		}
		id := string(t.id[:t.idLen])
		if seen[id] {
			return
		}
		seen[id] = true
		out = append(out, t.Snapshot())
	}
	// Newest-first over the main ring…
	for i := 1; i <= r.allN; i++ {
		add(&r.all[(r.next-i+len(r.all))%len(r.all)])
	}
	// …then the retained non-ok tail (newest first)…
	for i := 1; i <= r.keptN; i++ {
		add(&r.kept[(r.keptNxt-i+len(r.kept))%len(r.kept)])
	}
	// …then the per-endpoint slowness records.
	for i := 0; i < r.slowN; i++ {
		add(&r.slowest[i])
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}

// Len reports how many traces the main ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.allN
}
