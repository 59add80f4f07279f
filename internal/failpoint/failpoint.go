// Package failpoint is a named-hook fault-injection registry in the style
// of etcd's gofail: code on a fallible path calls Inject("layer/site") and
// tests (or an operator, via `hdcserve -failpoints` / the debug-only
// /failpointz endpoint) attach a policy — return an error, sleep, panic —
// optionally probabilistic and count-limited. The design constraint is the
// ros2probe one: selectively enabled instrumentation must cost ~nothing when
// idle. With no failpoint armed, Inject is a single atomic load and a
// predictable branch (pinned by BenchmarkFailpointDisabled in the benchgate
// key set); the registry lookup, RNG, and policy evaluation are only reached
// while at least one point is enabled anywhere in the process.
//
// Spec grammar (one policy per point):
//
//	[P%][N*]action[(arg)]
//
//	25%error(disk full)   → 25% of hits return an error wrapping ErrInjected
//	3*delay(5ms)          → first three hits sleep 5ms, then the point is inert
//	10%2*panic            → 10% of hits panic, at most twice
//	off                   → disable (Configure only)
//
// Actions: error(msg), delay(duration), panic[(msg)]. Multiple points are
// configured at once with a comma-separated list of name=spec pairs
// (Configure), e.g. HDC_FAILPOINTS="store/wal-append=error(enospc),pipeline/worker=2%delay(10ms)".
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical point names. Each constant is a hook that exists in the code
// today; the string form ("layer/site") is what Configure, -failpoints and
// /failpointz accept. See DESIGN.md §"The dependability layer" for what each
// site makes fail.
const (
	// StoreWALAppend fails the write-ahead-log append inside Store.Add,
	// tripping the store's sticky read-only state.
	StoreWALAppend = "store/wal-append"
	// StoreSegmentOpen fails opening/mmapping a segment file — at Open, or
	// during compaction's post-commit reopen (which also goes sticky).
	StoreSegmentOpen = "store/segment-open"
	// StoreCompactRename fails the segment rename that precedes the manifest
	// commit; compaction aborts but the store stays healthy.
	StoreCompactRename = "store/compact-rename"
	// StoreLookup injects into the mapped lookup path (Store.LookupKZWith) —
	// a delay here is the "store stall" of E23.
	StoreLookup = "store/lookup"
	// PipelineWorker injects into the worker dispatch loop, before the
	// recognizer runs: a delay slows every worker, an error completes the
	// frame with that error.
	PipelineWorker = "pipeline/worker"
	// PipelineRingForward injects into Source.forward between the ingest
	// ring and Stream.Submit; an error sheds the frame (counted as dropped).
	PipelineRingForward = "pipeline/ring-forward"
	// ServerDecode fails wire decoding of request frames (400 to the client).
	ServerDecode = "server/decode"
	// ServerSession fails stream/gesture session creation (503 to the client).
	ServerSession = "server/session"
	// GraphDispatch injects into a graph node's forwarder, between its input
	// edge and the node's pool stream: an error rides the message to the sink
	// as its verdict (the node stage is skipped, ownership is unchanged).
	GraphDispatch = "graph/dispatch"
	// GraphEdgeForward injects into every graph edge's push, before the
	// policy runs: an error sheds the message at that edge (released and
	// counted exactly like a policy shed).
	GraphEdgeForward = "graph/edge-forward"
)

// ErrInjected is the sentinel all injected errors wrap; callers and tests
// match with errors.Is(err, failpoint.ErrInjected).
var ErrInjected = errors.New("failpoint: injected fault")

// Error is the concrete error returned by an armed error() policy.
type Error struct {
	Name string // failpoint name that fired
	Msg  string // operator-supplied message, "" if none
}

// Error formats as "failpoint store/wal-append: msg".
func (e *Error) Error() string {
	if e.Msg == "" {
		return "failpoint " + e.Name
	}
	return "failpoint " + e.Name + ": " + e.Msg
}

// Unwrap ties every injected error to ErrInjected.
func (e *Error) Unwrap() error { return ErrInjected }

const (
	actError = iota
	actDelay
	actPanic
)

// policy is one parsed spec.
type policy struct {
	pct    float64       // firing probability in [0,1]; 1 when no P% prefix
	count  int64         // remaining firings; <0 = unlimited
	action int           // actError, actDelay, actPanic
	msg    string        // error()/panic() message
	delay  time.Duration // delay() duration
}

// point is one enabled failpoint.
type point struct {
	name  string
	spec  string
	hits  atomic.Uint64 // Inject consultations while enabled
	fired atomic.Uint64 // policy activations
	mu    sync.Mutex    // guards pol.count and rng
	pol   policy
	rng   *rand.Rand
}

// Status is the observable state of one enabled failpoint, as reported by
// List and /failpointz.
type Status struct {
	Name  string `json:"name"`
	Spec  string `json:"spec"`
	Hits  uint64 `json:"hits"`
	Fired uint64 `json:"fired"`
}

var (
	// armed counts enabled failpoints process-wide. The disabled fast path
	// of Inject is exactly one load of this.
	armed  atomic.Int32
	regMu  sync.Mutex
	seed   atomic.Int64
	points sync.Map // name → *point
)

// Inject consults the failpoint named name. It returns nil (after an
// optional injected delay) unless an error policy fires, in which case the
// returned error wraps ErrInjected. With no failpoints enabled anywhere it
// is a single atomic load.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	v, ok := points.Load(name)
	if !ok {
		return nil
	}
	return v.(*point).eval()
}

// eval applies the point's policy for one hit.
func (p *point) eval() error {
	p.hits.Add(1)
	p.mu.Lock()
	if p.pol.count == 0 {
		p.mu.Unlock()
		return nil
	}
	if p.pol.pct < 1 && p.rng.Float64() >= p.pol.pct {
		p.mu.Unlock()
		return nil
	}
	if p.pol.count > 0 {
		p.pol.count--
	}
	pol := p.pol
	p.mu.Unlock()
	p.fired.Add(1)
	switch pol.action {
	case actDelay:
		time.Sleep(pol.delay)
		return nil
	case actPanic:
		if pol.msg != "" {
			panic("failpoint " + p.name + ": " + pol.msg)
		}
		panic("failpoint " + p.name)
	default:
		return &Error{Name: p.name, Msg: pol.msg}
	}
}

// Enable arms the failpoint named name with the given spec, replacing any
// existing policy for it.
func Enable(name, spec string) error {
	pol, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("failpoint %s: %w", name, err)
	}
	if name == "" {
		return errors.New("failpoint: empty name")
	}
	pt := &point{name: name, spec: spec, pol: pol}
	pt.rng = rand.New(rand.NewSource(seed.Add(1) ^ time.Now().UnixNano()))
	regMu.Lock()
	_, existed := points.Load(name)
	points.Store(name, pt)
	if !existed {
		armed.Add(1)
	}
	regMu.Unlock()
	return nil
}

// Disable disarms the failpoint named name; disabling an unknown name is a
// no-op.
func Disable(name string) {
	regMu.Lock()
	if _, ok := points.Load(name); ok {
		points.Delete(name)
		armed.Add(-1)
	}
	regMu.Unlock()
}

// DisableAll disarms every failpoint. Tests that enable failpoints should
// `defer failpoint.DisableAll()`.
func DisableAll() {
	regMu.Lock()
	points.Range(func(k, _ any) bool {
		points.Delete(k)
		armed.Add(-1)
		return true
	})
	regMu.Unlock()
}

// List reports every enabled failpoint, sorted by name.
func List() []Status {
	var out []Status
	points.Range(func(_, v any) bool {
		p := v.(*point)
		out = append(out, Status{Name: p.name, Spec: p.spec, Hits: p.hits.Load(), Fired: p.fired.Load()})
		return true
	})
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Configure arms failpoints from a comma-separated list of name=spec pairs
// (the format of the HDC_FAILPOINTS environment variable and the hdcserve
// -failpoints flag). A spec of "off" disables the point. Empty input is a
// no-op.
func Configure(s string) error {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("failpoint: %q is not name=spec", part)
		}
		name, spec = strings.TrimSpace(name), strings.TrimSpace(spec)
		if spec == "off" {
			Disable(name)
			continue
		}
		if err := Enable(name, spec); err != nil {
			return err
		}
	}
	return nil
}

// parseSpec parses "[P%][N*]action[(arg)]".
func parseSpec(s string) (policy, error) {
	pol := policy{pct: 1, count: -1}
	rest := strings.TrimSpace(s)
	if rest == "" {
		return pol, errors.New("empty spec")
	}
	if i := strings.Index(rest, "%"); i >= 0 {
		pct, err := strconv.ParseFloat(rest[:i], 64)
		// Written as a range test rather than pct < 0 || pct > 100, which
		// NaN passes: a NaN probability would skip eval's gate and fire
		// on every hit.
		if err != nil || !(pct >= 0 && pct <= 100) {
			return pol, fmt.Errorf("bad probability %q", rest[:i])
		}
		pol.pct = pct / 100
		rest = rest[i+1:]
	}
	if i := strings.Index(rest, "*"); i >= 0 {
		n, err := strconv.ParseInt(rest[:i], 10, 64)
		if err != nil || n < 1 {
			return pol, fmt.Errorf("bad count %q", rest[:i])
		}
		pol.count = n
		rest = rest[i+1:]
	}
	action, arg := rest, ""
	if i := strings.Index(rest, "("); i >= 0 {
		if !strings.HasSuffix(rest, ")") {
			return pol, fmt.Errorf("unterminated argument in %q", rest)
		}
		action, arg = rest[:i], rest[i+1:len(rest)-1]
	}
	switch action {
	case "error":
		pol.action = actError
		pol.msg = arg
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return pol, fmt.Errorf("bad delay %q", arg)
		}
		pol.action = actDelay
		pol.delay = d
	case "panic":
		pol.action = actPanic
		pol.msg = arg
	default:
		return pol, fmt.Errorf("unknown action %q", action)
	}
	return pol, nil
}
