package experiments

import (
	"strings"
	"testing"
)

func TestAllOrderedAndUnique(t *testing.T) {
	exps := All()
	if len(exps) < 13 {
		t.Fatalf("suite has %d experiments, want ≥13", len(exps))
	}
	seen := map[string]bool{}
	prev := 0
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		if n := idOrder(e.ID); n <= prev {
			t.Fatalf("IDs not ordered at %s", e.ID)
		} else {
			prev = n
		}
	}
}

// TestExperimentsProduceReports runs each generator and checks the report
// carries both the paper framing and measured content. The heavier
// experiments are exercised too — they are the reproduction deliverable —
// but skipped in -short mode.
func TestExperimentsProduceReports(t *testing.T) {
	heavy := map[string]bool{"E9": true, "E10": true, "E12": true, "E13": true, "E22": true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && heavy[e.ID] {
				t.Skip("heavy experiment skipped in -short")
			}
			body, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(body) < 200 {
				t.Fatalf("%s report suspiciously short (%d bytes)", e.ID, len(body))
			}
			if !strings.Contains(body, "Paper") {
				t.Errorf("%s report lacks the paper framing", e.ID)
			}
			if !strings.Contains(body, "|") && !strings.Contains(body, "```") {
				t.Errorf("%s report has neither table nor figure", e.ID)
			}
		})
	}
}

func TestRunAllStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("full report generation skipped in -short")
	}
	var sb strings.Builder
	if err := RunAll(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, e := range All() {
		if !strings.Contains(out, "## "+e.ID+":") {
			t.Errorf("report missing section %s", e.ID)
		}
	}
	if strings.Contains(out, "**ERROR**") {
		t.Error("report contains embedded experiment errors")
	}
}

func TestSparklineShape(t *testing.T) {
	s := sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] >= runes[3] {
		t.Fatal("sparkline not monotone for ramp")
	}
	flat := sparkline([]float64{5, 5})
	if len([]rune(flat)) != 2 {
		t.Fatal("flat sparkline broken")
	}
}

func TestYesHelper(t *testing.T) {
	if yes(true) != "yes" || yes(false) != "no" {
		t.Fatal("yes() helper wrong")
	}
}

// TestE24VerdictFollowsRatios holds E24's closing prose to its table: the
// sentence about each row follows from the measured throughput ratio, not
// from a fixed claim.
func TestE24VerdictFollowsRatios(t *testing.T) {
	for _, tc := range []struct {
		armed, scraped float64
		want, not      []string
	}{
		{1.02, 0.98, []string{"×1.02", "×0.98", "Arming the tracer is within noise", "within noise too", "leaving tracing armed"}, []string{"scrape loop costs", "beyond noise"}},
		{0.99, 0.70, []string{"The scrape loop costs 30% of armed throughput", "2-CPU host"}, []string{"within noise too"}},
		{0.80, 1.00, []string{"Arming the tracer moved throughput beyond noise"}, []string{"leaving tracing armed"}},
		{1.00, 1.30, []string{"ran faster than the armed one"}, []string{"scrape loop costs"}},
	} {
		got := e24Verdict(tc.armed, tc.scraped, 2)
		for _, w := range tc.want {
			if !strings.Contains(got, w) {
				t.Errorf("armed ×%.2f scraped ×%.2f: verdict lacks %q:\n%s", tc.armed, tc.scraped, w, got)
			}
		}
		for _, w := range tc.not {
			if strings.Contains(got, w) {
				t.Errorf("armed ×%.2f scraped ×%.2f: verdict says %q:\n%s", tc.armed, tc.scraped, w, got)
			}
		}
	}
}
