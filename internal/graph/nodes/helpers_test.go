package nodes

import (
	"context"
	"testing"

	"hdc/internal/body"
	"hdc/internal/gesture"
	"hdc/internal/graph"
	"hdc/internal/pipeline"
	"hdc/internal/raster"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
)

// newTestPool starts a small shared worker pool for graph tests; its default
// recogniser carries no references because the value-only topologies never
// run recognition on it.
func newTestPool(t testing.TB) *pipeline.Pipeline {
	t.Helper()
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(rec, pipeline.Config{Workers: 4, QueueDepth: 8, StreamWindow: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// buildSpec builds spec on p with no delivery hooks (tests drive the graph
// through Process, which routes past them).
func buildSpec(t testing.TB, spec graph.Spec, p *pipeline.Pipeline) (*graph.Graph, error) {
	t.Helper()
	return graph.Build(spec, p, graph.Config{})
}

// processValues pushes one value-only batch through g and returns the sink
// Values in input order, failing the test on any call or per-slot error.
func processValues[T any](t testing.TB, g *graph.Graph, vals []T) []any {
	t.Helper()
	in := make([]graph.Input, len(vals))
	for i, v := range vals {
		in[i] = graph.Input{Value: v}
	}
	out, err := g.Process(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]any, len(out))
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("slot %d: %v", i, o.Err)
		}
		res[i] = o.Value
	}
	return res
}

// renderGestureWindow renders n frames of gest starting at phase0, sampled
// at r's template density (MinWindow frames per cycle).
func renderGestureWindow(t testing.TB, rend *scene.Renderer, r *gesture.Recognizer, gest gesture.Gesture, phase0 float64, n int) []*raster.Gray {
	t.Helper()
	frames := make([]*raster.Gray, n)
	for i := range frames {
		fig, err := gesture.FigureAt(gest, phase0+float64(i)/float64(r.MinWindow()), body.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := rend.RenderFigure(fig, scene.ReferenceView(), nil)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}
