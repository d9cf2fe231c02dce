package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"opportunet/internal/par"
	"opportunet/internal/timeline"
	"opportunet/internal/trace"
)

// Options configures Compute.
type Options struct {
	// MaxHops bounds the number of contacts per sequence; 0 means run to
	// the fixpoint (no optimal path uses more hops — the engine detects
	// this and stops).
	MaxHops int
	// Directed treats each contact (A, B) as usable only from A to B.
	// The default (false) matches the paper: either endpoint can forward
	// to the other while the contact lasts.
	Directed bool
	// TransmitDelay is the time one hop takes. 0 reproduces the paper's
	// model, in which any number of simultaneous contacts may be chained
	// (the "long contact case" of §3.1.3, which §4.2 adopts for traces).
	TransmitDelay float64
	// Sources restricts the computation to paths originating at the
	// given devices. nil computes every source. Destinations are always
	// all devices. Restricting sources is how the Hong-Kong analysis
	// uses external devices as relays without paying for their N²
	// source profiles.
	Sources []trace.NodeID
	// Workers is the number of goroutines sharding the computation by
	// source row (and, downstream, the aggregation loops that receive
	// these Options). 0 or negative selects GOMAXPROCS; 1 runs serially.
	// Results are byte-identical at every worker count: each source
	// row's frontiers are disjoint state, so rows never interact.
	Workers int
	// Ctx, when non-nil, cancels the computation: row engines poll it
	// periodically and Compute returns ctx.Err() — the same error at
	// every worker count — with no partial Result. Downstream consumers
	// of these Options (analysis studies, experiments) inherit the same
	// context for their aggregation loops. nil means never cancelled.
	Ctx context.Context
}

// Result holds the archives of Pareto-optimal path summaries for every
// computed (source, destination) pair, annotated with the minimal hop
// count at which each summary is achievable. All hop-bounded delivery
// functions are derived from it via Frontier.
type Result struct {
	// NumNodes is the device count of the analyzed trace.
	NumNodes int
	// Hops is the hop count at which the computation stopped: either the
	// fixpoint (no frontier changed when allowing one more hop) or
	// Options.MaxHops.
	Hops int
	// Fixpoint reports whether Hops is a true fixpoint, i.e. no optimal
	// path in the trace uses more than Hops contacts.
	Fixpoint bool
	// Delta echoes Options.TransmitDelay.
	Delta float64

	sources  []trace.NodeID
	srcIndex []int32 // node -> row in rows, or -1
	rows     []rowArchive
}

// rowArchive is one source row's archive arena: every accepted summary
// toward every destination of that row in a single contiguous backing
// array, grouped by destination through the offset table. Compared to a
// per-pair slice-of-slices it is cache-contiguous, costs two allocations
// per row instead of N growing slices, and lets Frontier slice its pair
// straight out of one backing array.
type rowArchive struct {
	entries []Entry
	off     []int32 // len NumNodes+1; destination d owns entries[off[d]:off[d+1]]
}

// pairEntries returns the append-ordered archive of (row, dst).
func (r *Result) pairEntries(row int32, dst int) []Entry {
	ra := &r.rows[row]
	return ra.entries[ra.off[dst]:ra.off[dst+1]]
}

// Compute runs the exhaustive optimal-path computation of §4.4 on the
// trace and returns the per-pair summary archives. The trace is not
// modified. It returns an error if the trace fails validation or if a
// requested source is out of range.
//
// Compute validates the trace and indexes it from scratch; callers that
// already hold a timeline view (a removal study deriving many views of
// one base index) use ComputeView to share the index across runs.
func Compute(tr *trace.Trace, opt Options) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return ComputeView(timeline.New(tr).All(), opt)
}

// ComputeView is Compute over a timeline view: the engine reads its
// adjacency straight from the view's per-node index (built at most once,
// shared read-only across row engines and across calls). The view is
// assumed to come from a validated trace.
//
// The computation is sharded by source row across Options.Workers
// goroutines. A row's frontiers are touched by no other row, and the
// contact adjacency is shared read-only, so the shards are fully
// independent: each runs its own hop iteration to its own fixpoint, and
// the archives are identical to a serial run entry for entry regardless
// of the worker count. Row engines draw their mutable scratch from a
// shared pool, so repeated computations (a removal study's per-rep runs)
// reuse warm buffers instead of re-allocating them.
func ComputeView(v *timeline.View, opt Options) (*Result, error) {
	coreMetrics.computes.Inc()
	n := v.NumNodes()
	res := &Result{
		NumNodes: n,
		Delta:    opt.TransmitDelay,
		srcIndex: make([]int32, n),
	}
	if opt.TransmitDelay < 0 {
		return nil, fmt.Errorf("core: negative TransmitDelay %v", opt.TransmitDelay)
	}
	if opt.Sources == nil {
		res.sources = make([]trace.NodeID, n)
		for i := range res.sources {
			res.sources[i] = trace.NodeID(i)
		}
	} else {
		res.sources = append([]trace.NodeID(nil), opt.Sources...)
	}
	for i := range res.srcIndex {
		res.srcIndex[i] = -1
	}
	for row, s := range res.sources {
		if int(s) < 0 || int(s) >= n {
			return nil, fmt.Errorf("core: source %d out of range (nodes=%d)", s, n)
		}
		res.srcIndex[s] = int32(row)
	}
	res.rows = make([]rowArchive, len(res.sources))

	rows := len(res.sources)
	if rows == 0 {
		res.Hops = 1
		res.Fixpoint = true
		return res, nil
	}
	// Per-row stop state, collected before each engine returns to the
	// pool.
	type rowStop struct {
		hops     int
		fixpoint bool
	}
	stops := make([]rowStop, rows)
	if err := par.DoErrCtx(opt.Ctx, rows, opt.Workers, func(row int) error {
		g := enginePool.Get().(*rowEngine)
		defer func() {
			g.release()
			enginePool.Put(g)
		}()
		g.reset(res, opt, n, v, row)
		if err := g.run(opt.Ctx); err != nil {
			return err
		}
		g.finalize()
		g.flushMetrics()
		stops[row] = rowStop{g.hops, g.fixpoint}
		return nil
	}); err != nil {
		return nil, err
	}
	// Global stop state: the serial engine stops at the last hop any row
	// still progressed on, and is at a fixpoint iff every row is.
	res.Hops = 1
	res.Fixpoint = true
	for _, st := range stops {
		if st.hops > res.Hops {
			res.Hops = st.hops
		}
		res.Fixpoint = res.Fixpoint && st.fixpoint
	}
	return res, nil
}

// enginePool recycles rowEngine scratch — frontiers, epoch stamps, the
// pivot/merge buffers, and the archive log — across rows and across
// Compute runs. A removal study's R × Compute repetitions therefore pay
// the cold-allocation cost once per worker, not once per row per rep.
var enginePool = sync.Pool{New: func() any { return new(rowEngine) }}

// rowEngine holds the mutable state of one source row of a Compute run:
// the frontier toward every destination, indexed by dst. cur[dst] is the
// frontier frozen at the end of the previous iteration; insertions of
// iteration k collect in the pending[dst] overlay and merge into cur
// only at commit, so every candidate generated during iteration k
// extends only summaries available with at most k−1 hops — the property
// that makes each archive entry's Hop the minimal hop count of its
// summary. Unlike a copy-on-write clone of the whole frontier per
// touched destination (O(F) garbage per destination per hop), the
// overlay holds only the iteration's accepted entries and the commit
// merge reuses cur's backing array in place.
//
// Iteration bookkeeping is epoch-stamped: epoch is the current hop
// number, and changedAt[dst] records the last hop at which dst accepted
// an entry, so "changed last iteration" is the comparison
// changedAt[dst] == epoch−1 with no per-hop flag clearing.
//
// The only shared structures are the read-only timeline view and this
// row's slot of the result archives, so rows run concurrently without
// synchronization.
type rowEngine struct {
	res *Result
	opt Options
	n   int
	v   *timeline.View

	src trace.NodeID
	row int

	use3 bool // TransmitDelay > 0: hop-aware 3-way dominance

	cur         [][]Entry // frozen frontier per destination
	pending     [][]Entry // this iteration's accepted entries per destination
	pendingList []int32   // destinations with a non-empty overlay, for commit
	changedAt   []int32   // last hop at which dst's frontier accepted an entry

	epoch        int32 // current hop number
	accepted     int   // entries accepted this iteration
	lastAccepted int   // entries accepted in the last committed iteration
	attempts     int   // insert calls over the whole row (observability)

	pivots []Entry // extend3D scratch: the hop-(k−1) bucket of one frontier
	merge  []Entry // commit scratch: merge2D staging buffer

	// Archive log: accepted entries in acceptance order with their
	// destination tags, scattered into the row's arena at finalize.
	logEntries []Entry
	logDst     []int32
	cnt        []int32 // per-destination accepted count

	hops     int  // hop count at which this row stopped
	fixpoint bool // whether hops is a true fixpoint for this row
}

// growEntrySlices resizes s to n inner slices, truncating every retained
// inner slice so its warm capacity is reused.
func growEntrySlices(s [][]Entry, n int) [][]Entry {
	if cap(s) < n {
		return make([][]Entry, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// growInt32 resizes s to n zeroed elements, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset prepares a pooled engine for one row of one Compute run.
func (g *rowEngine) reset(res *Result, opt Options, n int, v *timeline.View, row int) {
	g.notePoolGet()
	g.res = res
	g.opt = opt
	g.n = n
	g.v = v
	g.src = res.sources[row]
	g.row = row
	g.use3 = opt.TransmitDelay > 0
	g.cur = growEntrySlices(g.cur, n)
	g.pending = growEntrySlices(g.pending, n)
	g.pendingList = g.pendingList[:0]
	g.changedAt = growInt32(g.changedAt, n)
	g.cnt = growInt32(g.cnt, n)
	g.logEntries = g.logEntries[:0]
	g.logDst = g.logDst[:0]
	g.epoch = 0
	g.accepted, g.lastAccepted, g.attempts = 0, 0, 0
	g.hops, g.fixpoint = 0, false
}

// release drops the references into the run's result and view before the
// engine returns to the pool, so pooled scratch never pins a finished
// computation in memory.
func (g *rowEngine) release() {
	g.res = nil
	g.v = nil
	g.opt = Options{}
}

// run grows this row's frontiers to the fixpoint (or MaxHops). ctx is
// polled at every hop iteration and every few hundred extended
// destinations; once it is done, run aborts with ctx.Err() and the
// surrounding Compute discards the partial result.
func (g *rowEngine) run(ctx context.Context) error {
	// Hop 1: every usable contact leaving the source is a one-contact
	// sequence with LD = t_end, EA = t_beg.
	g.epoch = 1
	for _, e := range g.v.OutgoingByBeg(g.src) {
		if g.opt.Directed && !e.Fwd {
			continue
		}
		if e.To == g.src {
			continue
		}
		g.insert(int32(e.To), Entry{LD: e.End, EA: e.Beg, Hop: 1})
	}
	g.commit()
	g.hops = 1

	maxHops := g.opt.MaxHops
	// Safety valve: with Delta == 0 the reachable (LD, EA) grid is finite
	// so the fixpoint always terminates, but guard against pathological
	// inputs anyway.
	hardCap := 100000
	extended := 0
	for hop := 2; maxHops == 0 || hop <= maxHops; hop++ {
		if hop > hardCap {
			break
		}
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		g.epoch = int32(hop)
		prev := int32(hop - 1)
		for u := 0; u < g.n; u++ {
			if g.changedAt[u] != prev {
				continue
			}
			// Poll cancellation every few hundred extended frontiers, so
			// a runaway hop iteration stays responsive without putting a
			// select on every destination.
			if extended++; extended&255 == 0 && ctx != nil && ctx.Err() != nil {
				return ctx.Err()
			}
			if g.use3 {
				g.extend3D(trace.NodeID(u), g.cur[u], int32(hop))
			} else {
				g.extend2D(trace.NodeID(u), g.cur[u], int32(hop))
			}
		}
		progressed := g.accepted > 0
		g.commit()
		if !progressed {
			g.hops = hop - 1
			g.fixpoint = true
			return nil
		}
		g.hops = hop
	}
	// Stopped by MaxHops; check whether it happens to be a fixpoint
	// already (no changes pending means the previous pass stabilized).
	g.fixpoint = g.lastAccepted == 0
	return nil
}

// insert routes a candidate into the pending overlay of destination dst
// and archives it if it survives dominance. The dominance decision
// against the frozen frontier plus the overlay is identical to the
// decision an evolving copy-on-write frontier would make: dominance is
// transitive, so an entry displaced mid-iteration always leaves behind a
// live dominator of everything it dominated.
func (g *rowEngine) insert(dst int32, e Entry) {
	g.attempts++
	cur, pend := g.cur[dst], g.pending[dst]
	if g.use3 {
		for _, q := range cur {
			if dominates3D(q, e) {
				return
			}
		}
		for _, q := range pend {
			if dominates3D(q, e) {
				return
			}
		}
		g.pending[dst] = append(pend, e)
	} else {
		// The frozen frontier is an LD-sorted staircase with EA increasing
		// along it: the entry at the lower bound of LD >= e.LD has the
		// minimal EA among all entries that could dominate e.
		if i := sort.Search(len(cur), func(i int) bool { return cur[i].LD >= e.LD }); i < len(cur) && cur[i].EA <= e.EA {
			return
		}
		// The 2D overlay is itself kept as a staircase: add either rejects
		// e (dominated by a live overlay entry — and, by transitivity, by
		// anything the overlay has pruned) or splices it in, pruning what
		// it dominates. Rejection is a binary search instead of a scan,
		// and commit merges two already-sorted staircases.
		f := frontier2D(pend)
		if !f.add(e) {
			return
		}
		g.pending[dst] = f
	}
	if len(pend) == 0 {
		g.pendingList = append(g.pendingList, dst)
	}
	g.accepted++
	g.logEntries = append(g.logEntries, e)
	g.logDst = append(g.logDst, dst)
	g.cnt[dst]++
}

// commit folds every pending overlay into its frozen frontier in place,
// stamps the changed-at epochs, and rolls the iteration counters. The
// stamp happens here rather than at insert time so a destination that
// changed in iteration k−1 AND accepts again during iteration k still
// reads as changed-at-(k−1) for the whole extension pass of iteration k.
func (g *rowEngine) commit() {
	for _, dst := range g.pendingList {
		pend := g.pending[dst]
		if g.use3 {
			g.cur[dst] = merge3D(g.cur[dst], pend)
		} else {
			g.cur[dst] = g.merge2D(g.cur[dst], pend)
		}
		g.pending[dst] = pend[:0]
		g.changedAt[dst] = g.epoch
	}
	g.pendingList = g.pendingList[:0]
	g.lastAccepted = g.accepted
	g.accepted = 0
}

// merge2D merges the iteration's accepted overlay into the frozen
// staircase, producing the unique Pareto staircase of the union — the
// same set, in the same canonical order, that sequential adds onto a
// copied frontier would have left. Both inputs are LD-sorted staircases
// (insert maintains the overlay as one), so the union is a linear merge
// plus the paper's right-to-left sweep; the merged sequence is staged in
// the engine's scratch buffer and the survivors are written back into
// cur's backing array.
func (g *rowEngine) merge2D(cur, pend []Entry) []Entry {
	// The common overlay is a single entry: splice it into the staircase
	// directly (the 2D Pareto set of the union is unique, so this yields
	// exactly the canonical merge result without sweeping).
	if len(pend) == 1 {
		f := frontier2D(cur)
		f.add(pend[0])
		return f
	}
	m := g.merge[:0]
	i, j := 0, 0
	for i < len(cur) && j < len(pend) {
		if cur[i].LD < pend[j].LD || (cur[i].LD == pend[j].LD && cur[i].EA <= pend[j].EA) {
			m = append(m, cur[i])
			i++
		} else {
			m = append(m, pend[j])
			j++
		}
	}
	m = append(m, cur[i:]...)
	m = append(m, pend[j:]...)
	g.merge = m
	// Right-to-left sweep keeping entries whose EA is a new strict
	// minimum; within an equal-LD run only the first (minimal-EA) entry
	// can survive. This is condition (4) of the paper applied to the
	// union.
	out := cur[:0]
	bestEA := math.Inf(1)
	for k := len(m) - 1; k >= 0; k-- {
		if m[k].EA < bestEA && (k == 0 || m[k-1].LD != m[k].LD) {
			out = append(out, m[k])
			bestEA = m[k].EA
		}
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// merge3D replays the iteration's accepted inserts onto the unsorted
// hop-aware frontier: surviving cur entries keep their order, accepted
// entries append in acceptance order, and an entry is dropped iff a
// later-accepted entry 3D-dominates it — exactly the end state (content
// and order) of sequential adds onto a copied frontier.
func merge3D(cur, pend []Entry) []Entry {
	out := cur[:0]
	for _, q := range cur {
		if !dominated3DByAny(pend, q) {
			out = append(out, q)
		}
	}
	for i, p := range pend {
		if !dominated3DByAny(pend[i+1:], p) {
			out = append(out, p)
		}
	}
	return out
}

func dominated3DByAny(es []Entry, e Entry) bool {
	for _, q := range es {
		if dominates3D(q, e) {
			return true
		}
	}
	return false
}

// finalize scatters the row's acceptance-ordered archive log into the
// arena: one contiguous entry array grouped by destination plus the
// offset table. The scatter is stable, so each destination's archive is
// byte-identical to the per-pair append slice it replaces.
func (g *rowEngine) finalize() {
	off := make([]int32, g.n+1)
	for d, c := range g.cnt {
		off[d+1] = off[d] + c
	}
	entries := make([]Entry, len(g.logEntries))
	cursor := g.cnt // reuse the count array as the scatter cursor
	copy(cursor, off[:g.n])
	for i, e := range g.logEntries {
		d := g.logDst[i]
		entries[cursor[d]] = e
		cursor[d]++
	}
	g.res.rows[g.row] = rowArchive{entries: entries, off: off}
}

// extend2D generates the candidates obtained by appending each contact
// leaving u to the summaries of (source row, u), for the Delta == 0
// model. For a contact with interval [tb, te] and a frontier sorted by
// increasing LD and EA:
//
//   - among summaries with EA <= tb, only the one with the largest LD
//     matters: the compound is (min(LD, te), tb);
//   - summaries with tb < EA <= te compose to (min(LD, te), EA); once
//     LD >= te every further compound shares LD = te with a larger EA
//     and is dominated, so the scan stops early;
//   - summaries with EA > te cannot be extended through the contact
//     (concatenation condition iv).
//
// hop is the current iteration; since a summary enters the frontier at
// the iteration equal to its hop count, only pivots with Hop == hop−1
// are new. Candidates pivoting on older summaries were already attempted
// — or were dominated by candidates attempted — in the iteration where
// their pivot entered, so they are skipped.
func (g *rowEngine) extend2D(u trace.NodeID, f []Entry, hop int32) {
	if len(f) == 0 {
		return
	}
	newHop := hop - 1
	// First summary with EA > tb; contacts are sorted by tb so the
	// boundary only moves forward.
	i := 0
	for _, e := range g.v.OutgoingByBeg(u) {
		if g.opt.Directed && !e.Fwd {
			continue
		}
		for i < len(f) && f[i].EA <= e.Beg {
			i++
		}
		if e.To == g.src || e.To == u {
			continue
		}
		dst := int32(e.To)
		if i > 0 {
			if p := f[i-1]; p.Hop == newHop {
				g.insert(dst, Entry{LD: math.Min(p.LD, e.End), EA: e.Beg, Hop: p.Hop + 1})
			}
		}
		for j := i; j < len(f); j++ {
			p := f[j]
			if p.EA > e.End {
				break
			}
			if p.LD >= e.End {
				if p.Hop == newHop {
					g.insert(dst, Entry{LD: e.End, EA: p.EA, Hop: p.Hop + 1})
				}
				break
			}
			if p.Hop == newHop {
				g.insert(dst, Entry{LD: p.LD, EA: p.EA, Hop: p.Hop + 1})
			}
		}
	}
}

// extend3D is the hop-aware variant used when TransmitDelay > 0: a
// summary with h hops occupying its earliest schedule reaches u at
// EA + delta at the soonest, so the contact must still be open then; the
// compound last departure shrinks by h*delta because the chain needs h
// inter-hop gaps before the appended contact.
//
// Only entries with Hop == hop−1 can pivot (older ones were attempted
// when they entered), so the frontier is filtered into that bucket once
// and each contact visits just the new entries — mirroring the early-exit
// structure extend2D gets from its sorted sweep — instead of rescanning
// the whole frontier per contact.
func (g *rowEngine) extend3D(u trace.NodeID, f []Entry, hop int32) {
	if len(f) == 0 {
		return
	}
	delta := g.opt.TransmitDelay
	newHop := hop - 1
	g.pivots = g.pivots[:0]
	for _, p := range f {
		if p.Hop == newHop {
			g.pivots = append(g.pivots, p)
		}
	}
	if len(g.pivots) == 0 {
		return
	}
	for _, e := range g.v.OutgoingByBeg(u) {
		if g.opt.Directed && !e.Fwd {
			continue
		}
		if e.To == g.src || e.To == u {
			continue
		}
		dst := int32(e.To)
		for _, p := range g.pivots {
			if p.EA+delta > e.End {
				continue
			}
			g.insert(dst, Entry{
				LD:  math.Min(p.LD, e.End-float64(p.Hop)*delta),
				EA:  math.Max(p.EA+delta, e.Beg),
				Hop: p.Hop + 1,
			})
		}
	}
}

// Frontier returns the delivery-function representation for the pair
// (src, dst) within the class of paths using at most maxHop contacts.
// maxHop <= 0 means unbounded. It panics if src was not among the
// computed sources or either ID is out of range — a programming error,
// not a data error. It is safe for concurrent use: a Result is immutable
// once Compute returns, and the returned Frontier is freshly built.
func (r *Result) Frontier(src, dst trace.NodeID, maxHop int) Frontier {
	entries := r.archive("Frontier", src, dst)
	bound := hopBound(maxHop)
	if r.Delta > 0 {
		return Frontier{Entries: buildFrontier3D(entries, bound), Delta: r.Delta}.Indexed()
	}
	return Frontier{Entries: buildFrontier2D(entries, bound), Delta: 0}
}

// hopBound maps a maxHop argument to the archive filter bound.
func hopBound(maxHop int) int32 {
	if maxHop <= 0 || maxHop >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(maxHop)
}

// archive returns the append-ordered archive of (src, dst), panicking
// on the conditions Frontier documents; op names the caller.
func (r *Result) archive(op string, src, dst trace.NodeID) []Entry {
	if int(src) < 0 || int(src) >= r.NumNodes || int(dst) < 0 || int(dst) >= r.NumNodes {
		panic(fmt.Sprintf("core: %s(%d, %d) out of range (nodes=%d)", op, src, dst, r.NumNodes))
	}
	row := r.srcIndex[src]
	if row < 0 {
		panic(fmt.Sprintf("core: source %d was not computed", src))
	}
	return r.pairEntries(row, int(dst))
}

// PairArchiveLen returns the number of archived path summaries for the
// pair (src, dst): an upper bound on the size of any frontier of the
// pair, which is what SortedArchiveInto and FrontierFromSorted callers
// size their slots by. Panics on the same conditions as Frontier.
func (r *Result) PairArchiveLen(src, dst trace.NodeID) int {
	return len(r.archive("PairArchiveLen", src, dst))
}

// SortedArchiveInto copies the archive of (src, dst) into slot, which
// must have length at least PairArchiveLen(src, dst), sorts it by (LD,
// EA, Hop) and returns the sorted prefix (capacity capped at its
// length). It allocates nothing. Paired with FrontierFromSorted it
// builds a pair's Delta == 0 frontier for any number of hop bounds
// from one sort: aggregations sort every pair once into an arena and
// sweep it per bound. Panics on the same conditions as Frontier.
func (r *Result) SortedArchiveInto(src, dst trace.NodeID, slot []Entry) []Entry {
	entries := r.archive("SortedArchiveInto", src, dst)
	s := slot[:len(entries):len(entries)]
	copy(s, entries)
	sortEntries(s)
	return s
}

// Sources returns the source devices the result was computed for.
func (r *Result) Sources() []trace.NodeID {
	return append([]trace.NodeID(nil), r.sources...)
}

// MinHops returns the smallest hop bound under which dst is reachable
// from src at some starting time, or 0 if it never is.
func (r *Result) MinHops(src, dst trace.NodeID) int {
	row := r.srcIndex[src]
	if row < 0 {
		panic(fmt.Sprintf("core: source %d was not computed", src))
	}
	best := int32(0)
	for _, e := range r.pairEntries(row, int(dst)) {
		if best == 0 || e.Hop < best {
			best = e.Hop
		}
	}
	return int(best)
}
