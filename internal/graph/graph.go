// Package graph is the declarative dataflow runtime over the shared worker
// pool: a perception pipeline is described as a DAG of named nodes
// (ingest → binarize → features → classify → protocol) instead of being
// hardcoded into one stage shape the way Pipeline.NewProcStream is. Each
// node runs as a pipeline.Proc-style stage on the pool — one pool stream
// and one pipeline.Owner per node, so /statsz attributes frames per node
// ("graphname/nodename") and /tracez records every node hop with per-stage
// stamps exactly like any pipeline stage — and nodes are joined by bounded
// zero-copy edges of pooled buffers whose shed policy is chosen per edge
// (Block, DropOldest, Stride; see edge.go).
//
// Topology: a graph is a tree rooted at the single entry node — every node
// has at most one inbound edge, fan-out is unrestricted, and fan-in is not
// supported (merging two ordered streams needs a join policy no workload
// here wants yet). Messages fan out without copying pixels: branches share
// the pooled frame read-only behind a reference-counted cell, and the frame
// recycles through Config.Recycle exactly once when the last branch
// delivers, sheds or abandons it. That exactly-once recycle on every path
// is the ownership contract the graphtest conformance kit enforces.
//
// This is the dataflow-oriented architecture of DORA (PAPERS.md): declare
// the perception graph, let the runtime place stages on shared compute, and
// make overload behaviour a per-edge policy instead of a global property.
package graph

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hdc/internal/failpoint"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
)

// Sentinel errors.
var (
	// ErrClosed is returned by Submit once the graph has closed.
	ErrClosed = errors.New("graph: closed")
	// ErrShed marks a Process input that an edge policy discarded before it
	// reached the sink.
	ErrShed = errors.New("graph: message shed")
)

// Proc is one node's stage: it transforms m.Value (and may read m.Frame,
// treating it as read-only) on a pool worker's scratch. Like pipeline.Proc
// it runs concurrently across messages of the same node, so it must keep no
// per-message state outside m; sc is owned by the calling worker for the
// duration of the call. m.Frame is nil for non-vision workloads.
type Proc func(sc *recognizer.Scratch, m *Msg) error

// NodeSpec declares one named node.
type NodeSpec struct {
	Name string
	Proc Proc
}

// EdgeSpec declares one edge. From/To name nodes; the ingest edge (Spec.
// Ingest) leaves both empty. Cap defaults to 1; Policy defaults to Block;
// Stride requires K ≥ 1.
type EdgeSpec struct {
	From   string
	To     string
	Cap    int
	Policy Policy
	K      int
}

func (e EdgeSpec) withDefaults() EdgeSpec {
	if e.Cap <= 0 {
		e.Cap = 1
	}
	return e
}

func (e EdgeSpec) validate(kind string) error {
	if !e.Policy.valid() {
		return fmt.Errorf("graph: %s: invalid policy %d", kind, int(e.Policy))
	}
	if e.Policy == Stride && e.K < 1 {
		return fmt.Errorf("graph: %s: stride policy needs K >= 1 (got %d)", kind, e.K)
	}
	return nil
}

// Spec is the declarative description of a graph.
type Spec struct {
	// Name labels the graph; node owners attach to the pool as
	// "Name/nodename". Defaults to "graph".
	Name string
	// Nodes lists the stages. Exactly one must have no inbound edge (the
	// root); nodes with no outbound edge are sinks and deliver.
	Nodes []NodeSpec
	// Edges joins nodes into a tree rooted at the entry node.
	Edges []EdgeSpec
	// Ingest configures the edge in front of the root node — the edge
	// Submit pushes into. From/To are ignored.
	Ingest EdgeSpec
}

// Config tunes a built graph.
type Config struct {
	// Recycle receives every pooled frame exactly once when its message has
	// left the graph on all paths (delivered at every reached sink, shed,
	// or abandoned). Nil drops frames to the garbage collector.
	Recycle func(*raster.Gray)
	// Deliver receives every sink delivery (the sink node's name and the
	// message) for messages submitted without a Process call. It runs on
	// the sink's collector goroutine and must not block indefinitely or
	// retain m.Frame past its return.
	Deliver func(node string, m Msg)
}

// node is one built stage: its pool stream, its input edge, its fan-out.
type node struct {
	g        *Graph
	name     string
	proc     Proc
	owner    *pipeline.Owner
	st       *pipeline.Stream
	in       *edge
	children []*edge
	slab     []Msg  // in-flight messages, indexed by stream seq
	seq      uint64 // forwarder-only submission count == stream seq

	dispatched atomic.Uint64
}

// Graph is a built, running dataflow graph. Construct with Build; feed with
// Submit/SubmitContext or Process; stop with Close (drains accepted work)
// or Abandon (discards it). All methods are safe for concurrent use.
type Graph struct {
	name   string
	cfg    Config
	nodes  []*node // topological order, root first
	ingest *edge
	edges  []*edge // ingest first, then Spec.Edges order
	sinks  int

	seq       atomic.Uint64
	submitted atomic.Uint64
	delivered atomic.Uint64
	sheds     atomic.Uint64
	abandoned atomic.Uint64

	closed    atomic.Bool
	discarded atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// Build validates spec and starts the graph on p: one pipeline.Owner and
// one proc stream per node, a forwarder/collector goroutine pair per node.
// The graph holds its attachments until Close/Abandon — on a pool with no
// other owners, closing the graph drains the pool (the Attach contract).
func Build(spec Spec, p *pipeline.Pipeline, cfg Config) (*Graph, error) {
	if p == nil {
		return nil, errors.New("graph: nil pipeline")
	}
	if spec.Name == "" {
		spec.Name = "graph"
	}
	ordered, rootName, err := validate(spec)
	if err != nil {
		return nil, err
	}

	g := &Graph{name: spec.Name, cfg: cfg}
	byName := make(map[string]*node, len(spec.Nodes))
	for _, name := range ordered {
		var ns NodeSpec
		for _, cand := range spec.Nodes {
			if cand.Name == name {
				ns = cand
				break
			}
		}
		n := &node{g: g, name: ns.Name, proc: ns.Proc}
		owner, err := p.Attach(spec.Name + "/" + ns.Name)
		if err != nil {
			g.unwind(byName)
			return nil, fmt.Errorf("graph: attaching node %q: %w", ns.Name, err)
		}
		n.owner = owner
		st, err := owner.NewProcStream(n.wrap())
		if err != nil {
			owner.Close()
			g.unwind(byName)
			return nil, fmt.Errorf("graph: opening stream for node %q: %w", ns.Name, err)
		}
		n.st = st
		n.slab = make([]Msg, 2*st.Window()+4)
		byName[ns.Name] = n
		g.nodes = append(g.nodes, n)
	}

	g.ingest = newEdge(g, "", rootName, spec.Ingest.withDefaults())
	g.edges = append(g.edges, g.ingest)
	byName[rootName].in = g.ingest
	for _, es := range spec.Edges {
		e := newEdge(g, es.From, es.To, es.withDefaults())
		g.edges = append(g.edges, e)
		byName[es.From].children = append(byName[es.From].children, e)
		byName[es.To].in = e
	}
	for _, n := range g.nodes {
		if len(n.children) == 0 {
			g.sinks++
		}
	}

	g.wg.Add(2 * len(g.nodes))
	for _, n := range g.nodes {
		go n.forward()
		go n.collect()
	}
	return g, nil
}

// unwind releases the partially built nodes of a failed Build.
func (g *Graph) unwind(byName map[string]*node) {
	for _, n := range byName {
		if n.st != nil {
			n.st.Abandon()
		}
		if n.owner != nil {
			n.owner.Close()
		}
	}
}

// validate checks the spec and returns the node names in topological order
// (root first) plus the root's name.
func validate(spec Spec) (ordered []string, root string, err error) {
	if len(spec.Nodes) == 0 {
		return nil, "", errors.New("graph: no nodes")
	}
	if err := spec.Ingest.validate("ingest edge"); err != nil {
		return nil, "", err
	}
	indeg := make(map[string]int, len(spec.Nodes))
	for _, n := range spec.Nodes {
		if n.Name == "" {
			return nil, "", errors.New("graph: node with empty name")
		}
		if n.Proc == nil {
			return nil, "", fmt.Errorf("graph: node %q has nil proc", n.Name)
		}
		if _, dup := indeg[n.Name]; dup {
			return nil, "", fmt.Errorf("graph: duplicate node name %q", n.Name)
		}
		indeg[n.Name] = 0
	}
	children := make(map[string][]string, len(spec.Nodes))
	for i, e := range spec.Edges {
		if err := e.validate(fmt.Sprintf("edge %d (%s→%s)", i, e.From, e.To)); err != nil {
			return nil, "", err
		}
		if _, ok := indeg[e.From]; !ok {
			return nil, "", fmt.Errorf("graph: edge %d from unknown node %q", i, e.From)
		}
		if _, ok := indeg[e.To]; !ok {
			return nil, "", fmt.Errorf("graph: edge %d to unknown node %q", i, e.To)
		}
		if e.From == e.To {
			return nil, "", fmt.Errorf("graph: self-edge on %q", e.From)
		}
		indeg[e.To]++
		children[e.From] = append(children[e.From], e.To)
	}
	for name, d := range indeg {
		switch {
		case d == 0 && root != "":
			return nil, "", fmt.Errorf("graph: two entry nodes (%q and %q); a graph is a tree with one root", root, name)
		case d == 0:
			root = name
		case d > 1:
			return nil, "", fmt.Errorf("graph: node %q has %d inbound edges; fan-in is not supported", name, d)
		}
	}
	if root == "" {
		return nil, "", errors.New("graph: no entry node (every node has an inbound edge — the topology contains a cycle)")
	}
	// BFS from the root: with in-degree ≤ 1 everywhere, full reachability
	// proves the tree shape (an unreached node sits on a detached cycle or
	// island).
	queue := []string{root}
	seen := map[string]bool{root: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		ordered = append(ordered, cur)
		for _, c := range children[cur] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	if len(ordered) != len(spec.Nodes) {
		return nil, "", fmt.Errorf("graph: %d of %d nodes unreachable from root %q", len(spec.Nodes)-len(ordered), len(spec.Nodes), root)
	}
	return ordered, root, nil
}

// wrap adapts the node's Proc to the pipeline's Proc shape: the message is
// fetched from the slab slot the forwarder filled for this seq, errored
// messages pass through without running the stage, and a stage error
// becomes the message's verdict.
func (n *node) wrap() pipeline.Proc {
	return func(sc *recognizer.Scratch, seq uint64, _ *raster.Gray) (recognizer.Result, error) {
		m := &n.slab[seq%uint64(len(n.slab))]
		if m.Err != nil {
			return recognizer.Result{}, m.Err
		}
		if err := n.proc(sc, m); err != nil {
			m.Err = err
			return recognizer.Result{}, err
		}
		return recognizer.Result{}, nil
	}
}

// forward is the node's dispatch goroutine: it moves messages from the
// input edge onto the node's pool stream, parking the slab slot the worker
// and collector will read. Submission order equals stream seq (this is the
// stream's only submitter), so slot reuse is bounded by the stream window
// exactly as in gesture.Live's feature slab.
func (n *node) forward() {
	defer n.g.wg.Done()
	defer n.st.Close()
	for {
		m, ok := n.in.pop()
		if !ok {
			return
		}
		n.dispatched.Add(1)
		// The node-dispatch failpoint: an injected error rides the message
		// to the sink as its verdict; ownership is unchanged (the message
		// still travels and releases normally).
		if err := failpoint.Inject(failpoint.GraphDispatch); err != nil && m.Err == nil {
			m.Err = err
		}
		n.slab[n.seq%uint64(len(n.slab))] = m
		n.seq++
		err := n.st.Submit(m.Frame)
		if err == nil {
			continue
		}
		if !errors.Is(err, pipeline.ErrClosed) {
			// Refused before claiming a seq: the message never entered the
			// stream, so the collector will not see it — release it here.
			n.g.abandonMsg(m)
		}
		// The pool died under us (force-close): everything still queued on
		// the input edge can only be abandoned.
		for {
			m, ok := n.in.pop()
			if !ok {
				return
			}
			n.g.abandonMsg(m)
		}
	}
}

// collect is the node's delivery goroutine: it receives the stream's
// ordered results, recovers each message from the slab, and either fans it
// out to the children edges or delivers it (sink). When it finishes — the
// stream drained after close — it closes the children edges, cascading the
// drain down the tree.
func (n *node) collect() {
	defer n.g.wg.Done()
	defer func() {
		for _, e := range n.children {
			e.close()
		}
	}()
	bg := context.Background()
	for res := range n.st.Results() {
		m := n.slab[res.Seq%uint64(len(n.slab))]
		if res.Err != nil && m.Err == nil {
			m.Err = res.Err
		}
		if n.g.discarded.Load() {
			n.g.abandonMsg(m)
			continue
		}
		if len(n.children) == 0 {
			n.g.deliver(n.name, m)
			continue
		}
		m.retain(int32(len(n.children) - 1))
		for _, e := range n.children {
			if err := e.push(bg, m); err != nil {
				// Children close only after this goroutine exits, so a
				// refused push is unreachable; released for safety.
				n.g.abandonMsg(m)
			}
		}
	}
}

// deliver hands one message to its destination — the Process call that
// submitted it, or Config.Deliver — and releases it.
func (g *Graph) deliver(nodeName string, m Msg) {
	if t, ok := m.Tag.(*callTag); ok {
		t.c.set(t.idx, Output{Value: m.Value, Err: m.Err})
	} else if g.cfg.Deliver != nil {
		g.cfg.Deliver(nodeName, m)
	}
	g.delivered.Add(1)
	g.release(m)
}

// abandonMsg releases a message the graph could not carry to delivery.
func (g *Graph) abandonMsg(m Msg) {
	g.abandoned.Add(1)
	g.notifyDead(m, ErrClosed)
	g.release(m)
}

// notifyShed records a policy shed against the message's Process call, if
// it has one.
func (g *Graph) notifyShed(m Msg) { g.notifyDead(m, ErrShed) }

func (g *Graph) notifyDead(m Msg, err error) {
	if t, ok := m.Tag.(*callTag); ok {
		t.c.set(t.idx, Output{Err: err})
	}
}

// Submit offers one message to the graph's ingest edge under its policy: a
// Block ingest applies back-pressure, DropOldest/Stride shed instead. On a
// nil return the graph owns frame (it recycles through Config.Recycle on
// every path); on an error the caller keeps it. value is the root node's
// input payload; tag is carried to delivery untouched.
func (g *Graph) Submit(frame *raster.Gray, value, tag any) error {
	return g.submit(context.Background(), frame, value, tag)
}

// SubmitContext is Submit with a deadline on the ingest wait: a push parked
// on a full Block ingest edge gives up when ctx expires (the caller keeps
// the frame), so a stalled graph bounds the submitter's latency.
func (g *Graph) SubmitContext(ctx context.Context, frame *raster.Gray, value, tag any) error {
	return g.submit(ctx, frame, value, tag)
}

func (g *Graph) submit(ctx context.Context, frame *raster.Gray, value, tag any) error {
	if g.closed.Load() {
		return ErrClosed
	}
	m := Msg{Seq: g.seq.Add(1) - 1, Frame: frame, Value: value, Tag: tag, cell: &cell{frame: frame}}
	m.cell.refs.Store(1)
	if err := g.ingest.push(ctx, m); err != nil {
		return err
	}
	g.submitted.Add(1)
	return nil
}

// Input is one Process item: an optional pooled frame and the root node's
// payload.
type Input struct {
	Frame *raster.Gray
	Value any
}

// Output is one Process result: the sink's payload for the matching input,
// or the error that ended the message's journey (a node failure, ErrShed
// for a policy discard, ErrClosed for a teardown, ctx.Err() for inputs
// still in flight when the context expired).
type Output struct {
	Value any
	Err   error
}

// call collects one Process batch's deliveries, routed via each message's
// callTag.
type call struct {
	mu        sync.Mutex
	out       []Output
	filled    []bool
	remaining int
	done      chan struct{}
}

type callTag struct {
	c   *call
	idx int
}

func (c *call) set(idx int, o Output) {
	c.mu.Lock()
	if !c.filled[idx] {
		c.filled[idx] = true
		c.out[idx] = o
		c.remaining--
		if c.remaining == 0 {
			close(c.done)
		}
	}
	c.mu.Unlock()
}

// snapshot copies the results out, stamping unresolved slots with fallback.
func (c *call) snapshot(fallback error) []Output {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := make([]Output, len(c.out))
	copy(res, c.out)
	for i := range res {
		if !c.filled[i] {
			res[i] = Output{Err: fallback}
		}
	}
	return res
}

// errMultiSink rejects Process on graphs where one input yields several
// deliveries.
var errMultiSink = errors.New("graph: Process needs a single-sink graph")

// Process pushes a batch through the graph and returns one Output per input
// in input order — the synchronous request/response convenience the service
// endpoints build on, usable alongside concurrent Submits. It requires a
// single-sink graph (with fan-out, one input would deliver several times).
// Process always takes ownership of the input frames: each recycles through
// Config.Recycle exactly once whether its message delivered, shed, failed
// or outlived ctx — on expiry Process returns with the unresolved slots
// marked ctx.Err() while the stragglers drain (and recycle) behind it.
func (g *Graph) Process(ctx context.Context, in []Input) ([]Output, error) {
	if g.sinks != 1 {
		return nil, errMultiSink
	}
	c := &call{out: make([]Output, len(in)), filled: make([]bool, len(in)), remaining: len(in), done: make(chan struct{})}
	if len(in) == 0 {
		return nil, nil
	}
	for i := range in {
		if err := g.submit(ctx, in[i].Frame, in[i].Value, &callTag{c: c, idx: i}); err != nil {
			if in[i].Frame != nil && g.cfg.Recycle != nil {
				g.cfg.Recycle(in[i].Frame)
			}
			c.set(i, Output{Err: err})
		}
	}
	select {
	case <-c.done:
	case <-ctx.Done():
	}
	return c.snapshot(ctx.Err()), nil
}

// Close stops intake and drains: further Submits fail with ErrClosed,
// accepted messages flow to delivery, and every node detaches from the
// pool. Close blocks until the drain completes and is idempotent; Abandon
// after Close is a no-op.
func (g *Graph) Close() { g.teardown(false) }

// Abandon stops intake and discards: queued messages are shed from every
// edge and releases happen without delivery. Messages already on a worker
// finish their current stage first (at most a stream window per node), so
// Abandon is prompt, not instant; it blocks until the graph is quiescent.
func (g *Graph) Abandon() { g.teardown(true) }

func (g *Graph) teardown(discard bool) {
	g.closeOnce.Do(func() {
		g.closed.Store(true)
		if discard {
			g.discarded.Store(true)
			for _, e := range g.edges {
				e.abandon()
			}
		} else {
			g.ingest.close()
		}
		g.wg.Wait()
		for _, n := range g.nodes {
			n.owner.Close()
		}
	})
}

// NodeStats is one node's snapshot within Stats. Pool-level attribution
// (frames completed, streams) lives with the node's owner in
// pipeline.Stats.Owners under the label recorded here.
type NodeStats struct {
	Name string `json:"name"`
	// Owner is the node's attachment label on the pool ("graph/node").
	Owner string `json:"owner"`
	// Dispatched counts messages the forwarder moved onto the pool.
	Dispatched uint64 `json:"dispatched"`
	// Sink marks nodes that deliver.
	Sink bool `json:"sink,omitempty"`
}

// Stats is a point-in-time snapshot of the graph's message accounting.
// Submitted, Delivered, Shed and Abandoned are monotone; every submitted
// message ends in exactly one of the three terminal counters once the
// graph drains (fan-out counts each extra branch's terminal separately).
type Stats struct {
	Name      string      `json:"name"`
	Submitted uint64      `json:"submitted"`
	Delivered uint64      `json:"delivered"`
	Shed      uint64      `json:"shed"`
	Abandoned uint64      `json:"abandoned"`
	Nodes     []NodeStats `json:"nodes"`
	Edges     []EdgeStats `json:"edges"`
}

// Stats snapshots the graph. Safe for concurrent use.
func (g *Graph) Stats() Stats {
	s := Stats{
		Name:      g.name,
		Submitted: g.submitted.Load(),
		Delivered: g.delivered.Load(),
		Shed:      g.sheds.Load(),
		Abandoned: g.abandoned.Load(),
	}
	for _, n := range g.nodes {
		s.Nodes = append(s.Nodes, NodeStats{
			Name: n.name, Owner: n.owner.Label(),
			Dispatched: n.dispatched.Load(), Sink: len(n.children) == 0,
		})
	}
	for _, e := range g.edges {
		s.Edges = append(s.Edges, e.stats())
	}
	return s
}
