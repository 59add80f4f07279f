// Package experiments regenerates every figure and quantitative claim of
// the paper (the E1–E20 index in DESIGN.md). Each experiment is a pure
// function returning a markdown report section; cmd/experiments stitches
// them into EXPERIMENTS.md and the root benchmarks time their hot paths.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Experiment is one reproducible unit.
type Experiment struct {
	ID    string // "E1" ... "E13"
	Title string // short description
	Run   func() (string, error)
}

// All returns the full experiment suite in ID order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "E1", Title: "Fig 1 — all-round-light danger vs navigation", Run: E1LEDRing},
		{ID: "E2", Title: "Fig 2 — landing pattern and light sequence", Run: E2Landing},
		{ID: "E3", Title: "Fig 3 — negotiated area access", Run: E3Negotiation},
		{ID: "E4", Title: "Fig 4 — 'No' sign time series at 0° and 65°", Run: E4TimeSeries},
		{ID: "E5", Title: "§IV — recognition latency per stage", Run: E5Latency},
		{ID: "E6", Title: "§IV — altitude envelope (paper: 2–5 m)", Run: E6Altitude},
		{ID: "E7", Title: "§IV — azimuth envelope and dead angle (paper: ≤65°, ≈100°)", Run: E7Azimuth},
		{ID: "E8", Title: "§IV — uniqueness of the three sign words", Run: E8Uniqueness},
		{ID: "E9", Title: "§IV — sustained throughput vs 30/60 fps targets", Run: E9Throughput},
		{ID: "E10", Title: "§IV ref[22] — PAA/alphabet tuning grid + normalisation ablation", Run: E10Tuning},
		{ID: "E11", Title: "§II — LED count ablation and vertical-array verdict", Run: E11LEDAblation},
		{ID: "E12", Title: "§III — flight-pattern legibility (confusion matrix)", Run: E12Legibility},
		{ID: "E13", Title: "§I — orchard mission with negotiated trap access", Run: E13Mission},
		{ID: "E14", Title: "§V ext — dynamic marshalling gestures + RGB pulses", Run: E14Gestures},
		{ID: "E15", Title: "§IV — dead-zone repositioning hint (negative result)", Run: E15RepositioningHint},
		{ID: "E16", Title: "abstract ext — multi-drone fleet missions", Run: E16Fleet},
		{ID: "E17", Title: "scale ext — streaming recognition pipeline throughput", Run: E17Pipeline},
		{ID: "E18", Title: "scale ext — indexed sign database lookup cascade", Run: E18Database},
		{ID: "E19", Title: "scale ext — networked recognition service under multi-operator load", Run: E19Server},
		{ID: "E20", Title: "scale ext — live-feed ring-buffer ingest + pipeline-backed gestures", Run: E20Ingest},
		{ID: "E21", Title: "scale ext — fleet-shared recognition pool vs private per-drone pools", Run: E21FleetPool},
		{ID: "E22", Title: "scale ext — segmented on-disk sign store: mmap lookup, WAL, open-vs-parse", Run: E22Store},
		{ID: "E23", Title: "robustness ext — dependability layer under injected faults and overload", Run: E23Dependability},
		{ID: "E24", Title: "observability ext — per-frame tracing overhead: disarmed vs armed vs armed+scraped", Run: E24Tracing},
		{ID: "E25", Title: "scale ext — dataflow graph runtime: stream parity, mixed pooled workloads, shed policies", Run: E25Graph},
	}
	sort.Slice(exps, func(i, j int) bool { return idOrder(exps[i].ID) < idOrder(exps[j].ID) })
	return exps
}

func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// RunAll executes every experiment, streaming markdown to w. It returns the
// first hard error; individual experiment errors are embedded in the report
// so one failure does not mask the rest.
func RunAll(w io.Writer) error {
	fmt.Fprintln(w, "# EXPERIMENTS — measured reproduction report")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `go run ./cmd/experiments`. Paper values from Doran et")
	fmt.Fprintln(w, "al., DSN 2020; measured values from this repository's simulation.")
	fmt.Fprintln(w)
	for _, e := range All() {
		fmt.Fprintf(w, "## %s: %s\n\n", e.ID, e.Title)
		body, err := e.Run()
		if err != nil {
			fmt.Fprintf(w, "**ERROR**: %v\n\n", err)
			continue
		}
		fmt.Fprintln(w, strings.TrimRight(body, "\n"))
		fmt.Fprintln(w)
	}
	return nil
}
