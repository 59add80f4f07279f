package sax

import (
	"math"

	"hdc/internal/timeseries"
)

// Dictionary is the lookup surface shared by the in-memory Database and the
// segmented on-disk store (internal/sax/store): everything the recogniser
// needs from a sign dictionary. Implementations must be safe for concurrent
// lookups, with Add externally serialised against setup as documented by
// each backend.
type Dictionary interface {
	// Encoder returns the dictionary's SAX encoder.
	Encoder() *Encoder
	// SeriesLen returns the canonical signature length.
	SeriesLen() int
	// Len returns the number of entries.
	Len() int
	// Add registers a labelled reference series (resampled to the canonical
	// length, z-normalised, encoded).
	Add(label string, s timeseries.Series) error
	// LookupKZWith finds the (up to) k nearest entries to the prepared
	// query, closest first, written into dst; see Database.LookupKZWith for
	// the full contract.
	LookupKZWith(sc *LookupScratch, z timeseries.Series, qw Word, k int, dst []Match) ([]Match, error)
	// NearestHist runs only stage 0, the histogram scan — the
	// degraded-mode answer; see HistNearest for what the returned Match's Dist means.
	NearestHist(sc *LookupScratch, qw Word) (Match, bool)
}

// Database and the on-disk store both satisfy Dictionary.
var _ Dictionary = (*Database)(nil)

// LookupZOn runs the single-nearest-entry lookup with an acceptance
// threshold over any Dictionary — the Database.LookupZWith contract
// (ErrNoMatch carries the best rejected candidate for diagnostics) shared
// with the on-disk store. A nil scratch borrows one from the internal pool.
func LookupZOn(d Dictionary, sc *LookupScratch, z timeseries.Series, qw Word, threshold float64) (Match, error) {
	if sc == nil {
		sc = lookupScratchPool.Get().(*LookupScratch)
		defer lookupScratchPool.Put(sc)
	}
	res, err := d.LookupKZWith(sc, z, qw, 1, sc.one[:0])
	sc.one = res[:0]
	if err != nil {
		return Match{}, err
	}
	if len(res) == 0 {
		return Match{}, ErrNoMatch
	}
	best := res[0]
	if math.IsInf(best.Dist, 1) || best.Dist > threshold {
		return best, ErrNoMatch
	}
	return best, nil
}
