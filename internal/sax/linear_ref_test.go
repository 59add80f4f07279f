package sax

import (
	"sort"

	"hdc/internal/timeseries"
)

// LinearLookupKZ is the top-k form of LookupZLinear, the oracle of the
// cascade tests: every entry evaluated as LookupZLinear evaluates it, ranked
// by (Dist, insertion seq), the first k returned. Exported to the external
// test package only.
func LinearLookupKZ(db *Database, z timeseries.Series, qw Word, k int) ([]Match, error) {
	wordWin, seriesWin := db.params()
	entries := db.snapshot()
	all := make([]Match, len(entries))
	var mirror timeseries.Series
	for i := range entries {
		m, err := db.linearMatch(&entries[i], z, qw, wordWin, seriesWin, &mirror)
		if err != nil {
			return nil, err
		}
		all[i] = m
	}
	// entries are in seq order, so a stable sort by Dist breaks ties by seq.
	sort.SliceStable(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
	if k < len(all) {
		all = all[:k]
	}
	return all, nil
}
