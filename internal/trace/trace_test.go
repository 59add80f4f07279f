package trace

import (
	"sync"
	"sync/atomic"
	"testing"

	"hdc/internal/latency"
)

// drive pushes one frame through all seven boundaries and finishes it.
func drive(t *Tracer, owner uint32, term Terminal) Handle {
	h := t.Begin(owner)
	for st := Stage(0); st < numStages; st++ {
		h.Stamp(st)
	}
	h.Finish(term)
	return h
}

func TestStampAndSnapshotBasics(t *testing.T) {
	tr := New(2, 16)
	id := tr.LabelID("drone-7")
	drive(tr, id, TerminalDeliver)
	drive(tr, 0, TerminalShed)

	snap := tr.Snapshot(0)
	if !snap.Armed {
		t.Fatalf("expected armed snapshot")
	}
	if snap.Totals.Begun != 2 || snap.Totals.Delivered != 1 || snap.Totals.Shed != 1 {
		t.Fatalf("totals = %+v", snap.Totals)
	}
	if len(snap.Frames) != 2 {
		t.Fatalf("expected 2 frames, got %d", len(snap.Frames))
	}
	// Newest first: frame 2 (shed) before frame 1 (deliver, owner-attributed).
	if snap.Frames[0].ID != 2 || snap.Frames[0].Terminal != "shed" {
		t.Fatalf("frame[0] = %+v", snap.Frames[0])
	}
	if snap.Frames[1].ID != 1 || snap.Frames[1].Owner != "drone-7" || snap.Frames[1].Terminal != "deliver" {
		t.Fatalf("frame[1] = %+v", snap.Frames[1])
	}
	if got := len(snap.Frames[1].Stages); got != int(numStages) {
		t.Fatalf("expected %d stage spans, got %d", numStages, got)
	}
	if snap.Frames[1].Stages[0].Stage != "offer" || snap.Frames[1].Stages[6].Stage != "deliver" {
		t.Fatalf("stage order wrong: %+v", snap.Frames[1].Stages)
	}
	if len(snap.Stages) != numSpans {
		t.Fatalf("expected %d span aggregates, got %d", numSpans, len(snap.Stages))
	}
	for _, st := range snap.Stages {
		if st.Count != 2 {
			t.Fatalf("span %q count = %d, want 2", st.Stage, st.Count)
		}
		if st.P50Ns <= 0 || st.P99Ns < st.P50Ns {
			t.Fatalf("span %q percentiles p50=%d p99=%d", st.Stage, st.P50Ns, st.P99Ns)
		}
	}
}

func TestDisarmedBeginInactive(t *testing.T) {
	tr := New(1, 16)
	tr.Disarm()
	h := tr.Begin(0)
	if h.Active() || h.ID() != 0 {
		t.Fatalf("disarmed Begin must return the inactive handle, got %+v", h)
	}
	// Every hook on the inactive handle must be a no-op.
	h.Stamp(StageDequeue)
	h.StampAt(StageClassify, 123)
	h.Finish(TerminalDeliver)
	snap := tr.Snapshot(0)
	if snap.Totals.Begun != 0 || len(snap.Frames) != 0 {
		t.Fatalf("disarmed tracer recorded: %+v", snap.Totals)
	}
	tr.Arm()
	if h := tr.Begin(0); !h.Active() {
		t.Fatalf("re-armed Begin must be active")
	}
}

// TestRingWrap drives 10× the ring capacity through a one-worker tracer and
// checks the buffer holds exactly the newest records, all complete, with no
// frame counted twice.
func TestRingWrap(t *testing.T) {
	tr := New(1, 16) // capacity rounds to 16
	const total = 160
	for i := 0; i < total; i++ {
		drive(tr, 0, TerminalDeliver)
	}
	snap := tr.Snapshot(0)
	if snap.Totals.Begun != total || snap.Totals.Delivered != total {
		t.Fatalf("totals = %+v", snap.Totals)
	}
	if len(snap.Frames) != 16 {
		t.Fatalf("wrapped ring should retain 16 frames, got %d", len(snap.Frames))
	}
	seen := map[uint64]bool{}
	for i, f := range snap.Frames {
		want := uint64(total - i)
		if f.ID != want {
			t.Fatalf("frame[%d].ID = %d, want %d (newest first)", i, f.ID, want)
		}
		if seen[f.ID] {
			t.Fatalf("frame %d appears twice", f.ID)
		}
		seen[f.ID] = true
	}
}

// TestFinishExactlyOnce races many Finish calls (mixed terminals) on one
// handle: exactly one must win, and the terminal counters must agree.
func TestFinishExactlyOnce(t *testing.T) {
	tr := New(1, 16)
	h := tr.Begin(0)
	h.Stamp(StageEnqueue)
	h.Stamp(StageDequeue)
	h.Stamp(StageDeliver)

	var wg sync.WaitGroup
	terms := []Terminal{TerminalDeliver, TerminalAbandon, TerminalShed, TerminalAbandon}
	for _, term := range terms {
		wg.Add(1)
		go func(term Terminal) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Finish(term)
			}
		}(term)
	}
	wg.Wait()

	snap := tr.Snapshot(0)
	finished := snap.Totals.Delivered + snap.Totals.Shed + snap.Totals.Abandoned
	if finished != 1 {
		t.Fatalf("finish won %d times, want exactly 1 (totals %+v)", finished, snap.Totals)
	}
	if len(snap.Frames) != 1 {
		t.Fatalf("expected 1 completed frame, got %d", len(snap.Frames))
	}
}

// TestStaleHandleCannotFinishLappedSlot checks the generation claim: once a
// slot is reclaimed by a later frame, the original handle's Finish must not
// corrupt it.
func TestStaleHandleCannotFinishLappedSlot(t *testing.T) {
	tr := New(1, 16)
	stale := tr.Begin(0) // frame 1, left unfinished
	for i := 0; i < 16; i++ {
		drive(tr, 0, TerminalDeliver) // laps the ring, reclaiming frame 1's slot
	}
	before := tr.Snapshot(0).Totals
	stale.Finish(TerminalAbandon)
	after := tr.Snapshot(0).Totals
	if after.Abandoned != before.Abandoned {
		t.Fatalf("stale handle finished a lapped slot: %+v -> %+v", before, after)
	}
}

// TestSnapshotInvariantUnderLoad scrapes continuously while writers drive
// frames with mixed terminals; run under -race this doubles as the
// torn-read check. Invariants: delivered+shed+abandoned ≤ begun in every
// snapshot, and every visible frame is internally consistent (monotone
// non-negative offsets, known terminal).
func TestSnapshotInvariantUnderLoad(t *testing.T) {
	tr := New(4, 32)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := tr.LabelID([]string{"a", "b", "c", "d"}[w])
			for i := 0; !stop.Load(); i++ {
				term := []Terminal{TerminalDeliver, TerminalShed, TerminalAbandon}[i%3]
				drive(tr, owner, term)
			}
		}(w)
	}
	for scrape := 0; scrape < 200; scrape++ {
		snap := tr.Snapshot(16)
		finished := snap.Totals.Delivered + snap.Totals.Shed + snap.Totals.Abandoned
		if finished > snap.Totals.Begun {
			t.Fatalf("finished %d > begun %d", finished, snap.Totals.Begun)
		}
		if len(snap.Frames) > 16 {
			t.Fatalf("limit violated: %d frames", len(snap.Frames))
		}
		for _, f := range snap.Frames {
			if f.Terminal == "inflight" {
				t.Fatalf("snapshot leaked an in-flight frame: %+v", f)
			}
			if f.TotalNs < 0 {
				t.Fatalf("negative total on frame %d", f.ID)
			}
			for _, sp := range f.Stages {
				if sp.SinceNs < 0 {
					t.Fatalf("torn read: frame %d stage %s span %dns", f.ID, sp.Stage, sp.SinceNs)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestLabelInterning(t *testing.T) {
	tr := New(1, 16)
	if got := tr.LabelID(""); got != 0 {
		t.Fatalf("empty label id = %d, want 0", got)
	}
	a := tr.LabelID("alpha")
	b := tr.LabelID("beta")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("label ids not distinct: %d %d", a, b)
	}
	if again := tr.LabelID("alpha"); again != a {
		t.Fatalf("re-interning alpha gave %d, want %d", again, a)
	}
	if got := tr.label(a); got != "alpha" {
		t.Fatalf("label(%d) = %q", a, got)
	}
	if got := tr.label(999); got != "" {
		t.Fatalf("out-of-range label = %q, want empty", got)
	}
}

func TestSpanNamesOrder(t *testing.T) {
	names := SpanNames()
	want := []string{"ingest", "queue", "binarize", "features", "classify", "deliver"}
	if len(names) != len(want) {
		t.Fatalf("SpanNames() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SpanNames()[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestPercentileUpperNs(t *testing.T) {
	if l := (spanLayout{}); l.Buckets() != 32 || l.Bucket0Ns() != 256 {
		t.Fatalf("span layout %d×%dns, want 32×256ns", l.Buckets(), l.Bucket0Ns())
	}
	var h latency.Histogram[spanLayout]
	counts := make([]uint64, spanLayout{}.Buckets())
	counts[3] = 99 // 99 samples in [1024, 2048)
	counts[8] = 1  // 1 sample in [32768, 65536)
	if got := h.PercentileUpperNs(counts, 100, 50); got != 256<<3 {
		t.Fatalf("p50 = %d, want %d", got, 256<<3)
	}
	if got := h.PercentileUpperNs(counts, 100, 99); got != 256<<8 {
		t.Fatalf("p99 = %d, want %d (rank 100 lands on the lone outlier)", got, 256<<8)
	}
	if got := h.PercentileUpperNs(counts, 100, 100); got != 256<<8 {
		t.Fatalf("p100 = %d, want %d", got, 256<<8)
	}
	if got := h.PercentileUpperNs(counts, 0, 50); got <= 0 {
		t.Fatalf("empty histogram percentile = %d", got)
	}
}

// BenchmarkTraceDisabled pins the disarmed cost of the full per-frame hook
// set: Begin (the one atomic load) plus every stamp and the terminal on the
// inactive handle. This is a benchgate key benchmark — the contract is that
// tracing compiled-in-but-off costs a frame essentially nothing.
func BenchmarkTraceDisabled(b *testing.B) {
	tr := New(4, 64)
	tr.Disarm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := tr.Begin(0)
		h.Stamp(StageOffer)
		h.Stamp(StageEnqueue)
		h.Stamp(StageDequeue)
		h.StampAt(StageClassify, 0)
		h.Stamp(StageDeliver)
		h.Finish(TerminalDeliver)
	}
}

// BenchmarkTraceArmed is the armed counterpart: a full seven-boundary trace
// per iteration, including the slot claim and the terminal's histogram
// folds. Informational (not gated) — the interesting number is the ratio to
// BenchmarkTraceDisabled.
func BenchmarkTraceArmed(b *testing.B) {
	tr := New(4, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(tr, 0, TerminalDeliver)
	}
}
