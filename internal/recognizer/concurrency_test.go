package recognizer

import (
	"errors"
	"sync"
	"testing"

	"hdc/internal/body"
	"hdc/internal/raster"
	"hdc/internal/scene"
)

// TestParallelRecognizeConsistent runs the full pipeline from many
// goroutines at once — the documented concurrency contract — and checks
// every worker computes the identical verdict for the same frames. Run with
// -race to verify the sax.Database and scratch-pool locking underneath.
func TestParallelRecognizeConsistent(t *testing.T) {
	rec, rend := newCalibrated(t)
	view := scene.View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 20}

	signs := body.AllSigns()
	frames := make(map[body.Sign]*raster.Gray, len(signs))
	want := make(map[body.Sign]Result, len(signs))
	for _, s := range signs {
		f, err := rend.Render(s, view, body.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rec.Recognize(f)
		if err != nil && !errors.Is(err, ErrNoSign) {
			t.Fatal(err)
		}
		frames[s] = f
		want[s] = res
	}

	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewScratch()
			for i := 0; i < rounds; i++ {
				s := signs[(w+i)%len(signs)]
				var res Result
				var err error
				if i%2 == 0 {
					res, err = rec.RecognizeWith(sc, frames[s])
				} else {
					res, err = rec.Recognize(frames[s])
				}
				if err != nil && !errors.Is(err, ErrNoSign) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				w0 := want[s]
				if res.OK != w0.OK || res.Sign != w0.Sign || res.Word != w0.Word {
					t.Errorf("worker %d: sign %v diverged: got (%v %v %v), want (%v %v %v)",
						w, s, res.OK, res.Sign, res.Word, w0.OK, w0.Sign, w0.Word)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
