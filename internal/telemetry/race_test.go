package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestLogConcurrentEmitAndRead hammers one Log from writer and reader
// goroutines simultaneously — the usage pattern of a fleet of drones
// logging into a shared mission transcript. Run with -race to verify the
// locking; the final counts are asserted either way.
func TestLogConcurrentEmitAndRead(t *testing.T) {
	l := NewLog()
	const writers = 8
	const perWriter = 200

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Emitf(time.Duration(i)*time.Millisecond, fmt.Sprintf("drone-%d", w), "tick", "i=%d", i)
			}
		}(w)
	}
	// Readers run concurrently with the writers; their snapshots must be
	// internally consistent (never partially written events).
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, e := range l.Events() {
					if e.Kind != "tick" {
						t.Errorf("torn event: %+v", e)
						return
					}
				}
				_ = l.Count("tick")
				_ = l.Len()
				_ = l.EventsOfKind("tick")
			}
		}()
	}
	wg.Wait()

	if got := l.Len(); got != writers*perWriter {
		t.Fatalf("lost events: %d, want %d", got, writers*perWriter)
	}
	if got := l.Count("tick"); got != writers*perWriter {
		t.Fatalf("counter drifted: %d, want %d", got, writers*perWriter)
	}
}
