package main

// Tracing from outside the engine: timing decorators around the public
// calls into each layer. A span records name, start, end, the span that
// caused it and the query it belongs to; spans stay in memory and are
// analysed (self time, dispatch wait, wire time) when a run ends. The
// decorators are installed in every run and pass straight through while
// the tracer is off, so traced and untraced work runs the same code path.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"powerdrill/internal/cluster"
	"powerdrill/internal/exec"
)

// Span names, one per layer boundary.
const (
	spanQuery    = "query"           // one user query, as the client sees it
	spanParse    = "sql.parse"       // sql.Parse of the query text
	spanCall     = "cluster.call"    // client side of an RPC edge
	spanMixer    = "cluster.mixer"   // a mixer node's PartialQuery
	spanLeaf     = "exec.leaf"       // a leaf node's PartialQuery (parse + RunPartial)
	spanSnapshot = "ingest.snapshot" // ingest.Writer.Snapshot
	spanRun      = "ingest.run"      // ingest.Snapshot.Run
	spanAppend   = "ingest.append"   // ingest.Writer.Append
)

type span struct {
	ID     int64
	Parent int64 // 0 for a root
	QID    int64
	Name   string
	Start  int64 // ns since the tracer's base
	End    int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRef names a span and its query; it rides in contexts and in the
// RPC hand-off table.
type spanRef struct{ qid, id int64 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanCtxKey{}).(spanRef)
	return r, ok
}

type tracer struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Int64

	mu    sync.Mutex
	spans []span
	// handoff carries a client span across an RPC edge: net/rpc carries
	// no context, so the server side claims the oldest pending client span
	// sent to its address with the same SQL text.
	handoff map[string][]spanRef
	// shipped holds the partials served nodes sent over the wire; their
	// encode and decode are timed after the click, off the query's
	// critical path.
	shipped []*exec.Partial
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), handoff: map[string][]spanRef{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn as a span named name under parent; fn receives the new
// span's reference.
func (t *tracer) timed(parent spanRef, name string, fn func(ref spanRef)) {
	ref := spanRef{qid: parent.qid, id: t.newID()}
	start := t.now()
	fn(ref)
	t.record(span{ID: ref.id, Parent: parent.id, QID: ref.qid, Name: name, Start: start, End: t.now()})
}

func handoffKey(addr, sqlText string) string { return addr + "\x00" + sqlText }

func (t *tracer) expect(addr, sqlText string, r spanRef) {
	k := handoffKey(addr, sqlText)
	t.mu.Lock()
	t.handoff[k] = append(t.handoff[k], r)
	t.mu.Unlock()
}

func (t *tracer) claim(addr, sqlText string) (spanRef, bool) {
	k := handoffKey(addr, sqlText)
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.handoff[k]
	if len(q) == 0 {
		return spanRef{}, false
	}
	r := q[0]
	if len(q) == 1 {
		delete(t.handoff, k)
	} else {
		t.handoff[k] = q[1:]
	}
	return r, true
}

func (t *tracer) ship(p *exec.Partial) {
	t.mu.Lock()
	t.shipped = append(t.shipped, p)
	t.mu.Unlock()
}

// takeShipped returns and clears the partials shipped since the last call.
func (t *tracer) takeShipped() []*exec.Partial {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.shipped
	t.shipped = nil
	return out
}

// snapshotSpans copies the spans recorded so far.
func (t *tracer) snapshotSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// edge says which side of the tree a tracedNode sits on.
type edge int

const (
	// inProcess: the node is called directly; its parent span rides in
	// the context.
	inProcess edge = iota
	// rpcClient: the node is a client stub; its span is the whole call
	// and the server side claims it as parent through the hand-off table.
	rpcClient
	// rpcServer: the node is served over RPC at addr; its parent is the
	// client span claimed from the hand-off table.
	rpcServer
)

// tracedNode is the cluster.Leaf decorator. It wraps LocalLeaf, RemoteLeaf
// and Mixer alike, and forwards cluster.RowCounter so the dispatcher's
// Stat round sees through it.
type tracedNode struct {
	inner cluster.Leaf
	t     *tracer
	name  string // span name
	side  edge
	addr  string // rpcClient: the server called; rpcServer: own address
	// serial, when set, is shared by every leaf of a click-cold tree: the
	// leaves run one at a time, in index order (see config.serial).
	serial *turnstile
	index  int
}

// turnstile admits n callers one at a time in a fixed cyclic order, so the
// leaves of a serial click-cold run touch their shared memory budget in
// the same order on every run. Every query must call every leaf once,
// which holds with one replica per shard and no failures. It is needed
// once colstore.PinSet.Release drops a query's pins in a fixed order; until
// then the counts vary regardless (see TestCountsRepeatCold).
type turnstile struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
	n    int
}

func newTurnstile(n int) *turnstile {
	ts := &turnstile{n: n}
	ts.cond = sync.NewCond(&ts.mu)
	return ts
}

func (ts *turnstile) enter(i int) {
	ts.mu.Lock()
	for ts.next != i {
		ts.cond.Wait()
	}
	ts.mu.Unlock()
}

func (ts *turnstile) leave() {
	ts.mu.Lock()
	ts.next = (ts.next + 1) % ts.n
	ts.cond.Broadcast()
	ts.mu.Unlock()
}

func (n *tracedNode) Name() string { return n.inner.Name() }

func (n *tracedNode) NumRows(ctx context.Context) (int64, error) {
	rc, ok := n.inner.(cluster.RowCounter)
	if !ok {
		return 0, fmt.Errorf("pdperf: node %s does not count rows", n.inner.Name())
	}
	return rc.NumRows(ctx)
}

func (n *tracedNode) PartialQuery(ctx context.Context, sqlText string) (*exec.Partial, error) {
	if n.serial != nil {
		n.serial.enter(n.index)
		defer n.serial.leave()
	}
	if !n.t.enabled() {
		return n.inner.PartialQuery(ctx, sqlText)
	}
	var parent spanRef
	var ok bool
	if n.side == rpcServer {
		parent, ok = n.t.claim(n.addr, sqlText)
	} else {
		parent, ok = spanFrom(ctx)
	}
	if !ok {
		// Not part of a traced query (a Stat round or a stray call).
		return n.inner.PartialQuery(ctx, sqlText)
	}
	var (
		p   *exec.Partial
		err error
	)
	n.t.timed(parent, n.name, func(ref spanRef) {
		if n.side == rpcClient {
			n.t.expect(n.addr, sqlText, ref)
		}
		p, err = n.inner.PartialQuery(withSpan(ctx, ref), sqlText)
	})
	if n.side == rpcServer && err == nil {
		n.t.ship(p)
	}
	return p, err
}

// wireTimes encodes and decodes each shipped partial with the engine's
// public wire functions, checking the round trip, and returns the sizes and
// per-call times.
func wireTimes(parts []*exec.Partial) (bytes []float64, encUS, decUS []float64, err error) {
	for _, p := range parts {
		start := time.Now()
		b := exec.EncodePartial(p)
		mid := time.Now()
		back, derr := exec.DecodePartial(b)
		end := time.Now()
		if derr != nil {
			return nil, nil, nil, fmt.Errorf("pdperf: decode shipped partial: %w", derr)
		}
		if len(back.Groups) != len(p.Groups) {
			return nil, nil, nil, fmt.Errorf("pdperf: partial round trip changed %d groups to %d", len(p.Groups), len(back.Groups))
		}
		bytes = append(bytes, float64(len(b)))
		encUS = append(encUS, float64(mid.Sub(start))/1e3)
		decUS = append(decUS, float64(end.Sub(mid))/1e3)
	}
	return bytes, encUS, decUS, nil
}

// spanTree indexes spans for the self-time analysis.
type spanTree struct {
	byID     map[int64]span
	children map[int64][]span
}

func newSpanTree(spans []span) *spanTree {
	st := &spanTree{byID: map[int64]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		st.byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s)
		}
	}
	return st
}

// selfTime is s's duration minus the part of it its children cover.
func (st *spanTree) selfTime(s span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range st.children[s.ID] {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	first := true
	for _, v := range ivs {
		switch {
		case first:
			curA, curB, first = v.a, v.b, false
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if !first {
		covered += curB - curA
	}
	return s.dur() - time.Duration(covered)
}
