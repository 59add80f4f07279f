package graph

import (
	"context"
	"sync"
	"sync/atomic"

	"hdc/internal/failpoint"
)

// edge.go implements the bounded channel between two graph nodes. An edge
// is a fixed-capacity ring of Msg values with a pluggable shed policy: what
// happens when a producer pushes into a full edge is the edge's decision,
// not the graph's — that per-edge choice (block the producer, evict the
// oldest, or thin the stream by stride) is what keeps one slow node from
// dictating the whole graph's behaviour under load.
//
// Ownership rule: push either takes ownership of the message (queued, or
// shed-and-released inside the edge) or refuses it with an error and leaves
// ownership with the caller. There is no third state, which is what makes
// the frame-pool gets==puts invariant checkable across any topology.

// Policy selects an edge's behaviour when a message arrives.
type Policy int

// Built-in edge policies.
const (
	// Block applies back-pressure: a push into a full edge waits for space,
	// propagating stall upstream (ultimately to Graph.Submit).
	Block Policy = iota
	// DropOldest admits the new message by evicting and shedding the oldest
	// queued one — the camera-cadence policy: fresh frames beat stale ones.
	DropOldest
	// Stride keeps every K-th arriving message and sheds the rest (the
	// "keep every k-th frame" thinning policy); kept messages then behave
	// like Block. K=1 keeps everything.
	Stride
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case Stride:
		return "stride"
	default:
		return "invalid"
	}
}

// valid reports whether p is a built-in policy.
func (p Policy) valid() bool { return p >= Block && p <= Stride }

// edge is one bounded policy-bearing ring between two nodes (or between
// Graph.Submit and the root node, for the ingest edge).
type edge struct {
	g    *Graph
	from string // "" for the ingest edge
	to   string
	cap  int
	pol  Policy
	k    int // Stride modulus

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []Msg
	head    int
	n       int
	closed  bool   // producer done: pops drain the queue then report false
	discard bool   // abandoned: pushes shed, pops report false immediately
	stride  uint64 // arrivals seen by the Stride policy

	arrived atomic.Uint64 // pushes attempted (including shed ones)
	shed    atomic.Uint64 // messages released by policy, failpoint or abandon
}

func newEdge(g *Graph, from, to string, spec EdgeSpec) *edge {
	e := &edge{g: g, from: from, to: to, cap: spec.Cap, pol: spec.Policy, k: spec.K}
	e.cond = sync.NewCond(&e.mu)
	e.buf = make([]Msg, e.cap)
	return e
}

// push offers m to the edge under its policy. On a nil return the edge owns
// m (queued, or already shed and released); ErrClosed leaves m with the
// caller. ctx bounds a Block wait; pass context.Background() for none.
func (e *edge) push(ctx context.Context, m Msg) error {
	e.arrived.Add(1)
	if err := failpoint.Inject(failpoint.GraphEdgeForward); err != nil {
		e.shedMsg(m)
		return nil
	}
	var stop func() bool
	if ctx.Done() != nil {
		// A cancelled context must wake a push parked on a full Block edge.
		stop = context.AfterFunc(ctx, func() {
			e.mu.Lock()
			e.cond.Broadcast()
			e.mu.Unlock()
		})
		defer stop()
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.discard {
		e.mu.Unlock()
		e.shedMsg(m)
		return nil
	}
	if e.pol == Stride {
		keep := e.stride%uint64(e.k) == 0
		e.stride++
		if !keep {
			e.mu.Unlock()
			e.shedMsg(m)
			return nil
		}
	}
	if e.pol == DropOldest {
		if e.n == e.cap {
			old := e.buf[e.head]
			e.buf[e.head] = Msg{}
			e.head = (e.head + 1) % e.cap
			e.n--
			e.append(m)
			e.cond.Broadcast()
			e.mu.Unlock()
			e.shedMsg(old)
			return nil
		}
		e.append(m)
		e.cond.Broadcast()
		e.mu.Unlock()
		return nil
	}
	// Block (and a Stride-kept message): wait for space.
	for e.n == e.cap && !e.discard && !e.closed && ctx.Err() == nil {
		e.cond.Wait()
	}
	switch {
	case e.closed:
		e.mu.Unlock()
		return ErrClosed
	case e.discard:
		e.mu.Unlock()
		e.shedMsg(m)
		return nil
	case ctx.Err() != nil:
		e.mu.Unlock()
		return ctx.Err()
	}
	e.append(m)
	e.cond.Broadcast()
	e.mu.Unlock()
	return nil
}

// append adds m to the ring. Caller holds e.mu with space available.
func (e *edge) append(m Msg) {
	e.buf[(e.head+e.n)%e.cap] = m
	e.n++
}

// pop blocks for the next message; false means the edge is drained and
// closed (or abandoned) and no further message will arrive.
func (e *edge) pop() (Msg, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.n == 0 && !e.closed && !e.discard {
		e.cond.Wait()
	}
	if e.discard || e.n == 0 {
		return Msg{}, false
	}
	m := e.buf[e.head]
	e.buf[e.head] = Msg{}
	e.head = (e.head + 1) % e.cap
	e.n--
	e.cond.Broadcast()
	return m, true
}

// close marks the producer side done: queued messages still drain.
func (e *edge) close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// abandon discards the edge: queued messages are shed and released, parked
// pushes shed their message on wake, and pops report done.
func (e *edge) abandon() {
	e.mu.Lock()
	e.discard = true
	drained := make([]Msg, 0, e.n)
	for e.n > 0 {
		drained = append(drained, e.buf[e.head])
		e.buf[e.head] = Msg{}
		e.head = (e.head + 1) % e.cap
		e.n--
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	for _, m := range drained {
		e.shedMsg(m)
	}
}

// shedMsg accounts and releases one message the edge discarded.
func (e *edge) shedMsg(m Msg) {
	e.shed.Add(1)
	e.g.sheds.Add(1)
	e.g.notifyShed(m)
	e.g.release(m)
}

// EdgeStats is one edge's counter snapshot, exported via Graph.Stats. Shed
// and Arrived are monotone (they only grow for the life of the graph) and
// Shed never exceeds Arrived — the accounting invariant the conformance kit
// samples concurrently under load.
type EdgeStats struct {
	From   string `json:"from"` // "" for the ingest edge
	To     string `json:"to"`
	Cap    int    `json:"cap"`
	Policy string `json:"policy"`
	K      int    `json:"k,omitempty"` // Stride modulus
	// Arrived counts pushes attempted, Shed the messages the edge released
	// (policy eviction, stride thinning, injected faults, abandon); Depth
	// is the queue occupancy at snapshot time.
	Arrived uint64 `json:"arrived"`
	Shed    uint64 `json:"shed"`
	Depth   int    `json:"depth"`
}

// stats snapshots the edge's counters.
func (e *edge) stats() EdgeStats {
	e.mu.Lock()
	depth := e.n
	e.mu.Unlock()
	// Every shed message arrived first, so loading shed before arrived
	// keeps Shed <= Arrived in every snapshot.
	shed := e.shed.Load()
	s := EdgeStats{
		From: e.from, To: e.to, Cap: e.cap, Policy: e.pol.String(),
		Arrived: e.arrived.Load(), Shed: shed, Depth: depth,
	}
	if e.pol == Stride {
		s.K = e.k
	}
	return s
}
