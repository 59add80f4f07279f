// Package gesture implements the dynamic marshalling signals the paper's
// §V flags as future work ("the flexibility of the system with respect to
// other static and, possibly later, dynamic marshalling signals"). A
// dynamic signal is a periodic arm motion; the recogniser watches a short
// window of frames, extracts two scalar silhouette features per frame
// (lateral and vertical position of the silhouette's topmost point,
// normalised to the bounding box) and matches the resulting *temporal*
// series against gesture templates with the same rotation-invariant SAX
// machinery the static signs use — here, circular shift = phase shift, so
// recognition does not need to know where in the gesture cycle the capture
// started.
package gesture

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"hdc/internal/body"
	"hdc/internal/raster"
	"hdc/internal/scene"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

// Gesture enumerates the dynamic signals. Enums start at 1.
type Gesture int

// The dynamic-signal vocabulary (an extension set; the paper defines none
// concretely).
const (
	// GestureWave: one raised arm sways left-right overhead — the natural
	// long-range attention signal.
	GestureWave Gesture = iota + 1
	// GesturePump: both arms pump together between horizontal-out and
	// raised — "descend/come down" in common ground-marshalling use.
	GesturePump
	// GestureSeesaw: the two arms alternate up and down — "danger/wave
	// off" in emergency signalling.
	GestureSeesaw
)

// Gestures lists the vocabulary.
func Gestures() []Gesture { return []Gesture{GestureWave, GesturePump, GestureSeesaw} }

// String implements fmt.Stringer.
func (g Gesture) String() string {
	switch g {
	case GestureWave:
		return "Wave"
	case GesturePump:
		return "Pump"
	case GestureSeesaw:
		return "Seesaw"
	default:
		return fmt.Sprintf("Gesture(%d)", int(g))
	}
}

// Valid reports whether g is defined.
func (g Gesture) Valid() bool { return g >= GestureWave && g <= GestureSeesaw }

// idle arm at the side.
var idleArm = body.ArmPose{ShoulderDeg: 12, ElbowDeg: 8}

// FigureAt returns the signaller's figure at cycle phase ∈ [0, 1) of the
// gesture. The motion is C¹-smooth (sinusoidal interpolation).
func FigureAt(g Gesture, phase float64, opts body.Options) (body.Figure, error) {
	if !g.Valid() {
		return body.Figure{}, fmt.Errorf("gesture: invalid gesture %d", int(g))
	}
	phase = phase - math.Floor(phase)
	// s swings sinusoidally in [-1, 1] over the cycle.
	s := math.Sin(2 * math.Pi * phase)
	switch g {
	case GestureWave:
		// Right arm overhead swaying between 140° and 185°.
		mid, amp := 162.5, 22.5
		arm := body.ArmPose{ShoulderDeg: mid + amp*s, ElbowDeg: mid + 5 + amp*s}
		return body.NewFigurePose(idleArm, arm, opts), nil
	case GesturePump:
		// Both arms pumping symmetrically between horizontal-out (95°) and
		// raised (155°): the silhouette's top oscillates vertically while
		// its mass stays laterally centred.
		lo := body.ArmPose{ShoulderDeg: 95, ElbowDeg: 98}
		hi := body.ArmPose{ShoulderDeg: 155, ElbowDeg: 158}
		t := (s + 1) / 2
		arm := lo.Lerp(hi, t)
		return body.NewFigurePose(arm, arm, opts), nil
	case GestureSeesaw:
		// Arms alternating: left up while right down and vice versa.
		up := body.ArmPose{ShoulderDeg: 150, ElbowDeg: 155}
		down := body.ArmPose{ShoulderDeg: 40, ElbowDeg: 36}
		t := (s + 1) / 2
		return body.NewFigurePose(up.Lerp(down, t), down.Lerp(up, t), opts), nil
	}
	return body.Figure{}, fmt.Errorf("gesture: unhandled gesture %v", g)
}

// Features are the two per-frame scalar observables, chosen empirically
// (see E14): CenX is only active for the asymmetric Wave, and Aspect is
// active for every gesture but oscillates at double frequency for Seesaw
// (whose arms pass through horizontal twice per cycle) — together they
// separate the vocabulary.
type Features struct {
	// CenX is the silhouette centroid's lateral offset from the bounding-box
	// centre, normalised to [-1, 1] across the half-width. Centroids are
	// integrals — robust to the pixel ties that plague "topmost pixel"
	// features on symmetric poses.
	CenX float64
	// Aspect is the bounding box's width/height ratio: raised arms make the
	// silhouette tall and narrow, outstretched arms wide and short.
	Aspect float64
}

// ExtractFeatures computes the per-frame features from a binarised frame.
func ExtractFeatures(mask *vision.Binary) (Features, error) {
	_, comp, err := vision.LargestComponent(mask)
	if err != nil {
		return Features{}, err
	}
	return FeaturesFromComponent(comp)
}

// FeaturesFromComponent computes the features from component statistics
// alone — the allocation-free path used by the pipeline stage, which gets
// its component from a worker's vision.Scratch. Component bounds are
// inclusive pixel coordinates, so a component spanning columns MinX..MaxX
// is MaxX−MinX+1 pixels wide: the former w = MaxX−MinX under-measured every
// box by one pixel, biasing every Aspect and rejecting a one-column
// silhouette (w == 0) as degenerate.
func FeaturesFromComponent(comp vision.Component) (Features, error) {
	if comp.Area <= 0 {
		return Features{}, errors.New("gesture: degenerate silhouette")
	}
	w := comp.MaxX - comp.MinX + 1
	h := comp.MaxY - comp.MinY + 1
	center := float64(comp.MinX+comp.MaxX) / 2
	fx := (comp.CenX - center) / (float64(w) / 2)
	return Features{CenX: fx, Aspect: float64(w) / float64(h)}, nil
}

// morphRadius is the opening radius applied to binarised frames before
// component extraction (speckle removal), matching the recogniser's vision
// front half.
const morphRadius = 1

// ExtractFrame is the pooled-scratch per-frame feature stage as a public
// entry point: graph nodes (internal/graph/nodes) run exactly this from a
// worker's vision scratch, so the graph-served gesture path reuses the same
// code — and produces bit-identical Features — as the Live session.
func ExtractFrame(vs *vision.Scratch, frame *raster.Gray) (Features, error) {
	return extractFrame(vs, frame)
}

// extractFrame is the pooled-buffer feature path: binarise and open with the
// scratch's planes, take the largest component, reduce it to Features.
func extractFrame(vs *vision.Scratch, frame *raster.Gray) (Features, error) {
	mask := vs.Binarize(frame)
	mask = vs.Open(mask, morphRadius)
	_, comp, err := vs.LargestComponent(mask)
	if err != nil {
		return Features{}, err
	}
	return FeaturesFromComponent(comp)
}

// Config tunes the recogniser.
type Config struct {
	// FramesPerCycle is the template sampling density (default 24).
	FramesPerCycle int
	// WindowCycles is how many gesture cycles one observation window spans
	// (default 1; the template matching is phase-invariant, so a single
	// cycle suffices).
	WindowCycles int
	// Threshold is the acceptance distance (default 4.0, on z-normalised
	// feature series).
	Threshold float64
}

func (c Config) withDefaults() Config {
	if c.FramesPerCycle == 0 {
		c.FramesPerCycle = 24
	}
	if c.WindowCycles == 0 {
		c.WindowCycles = 1
	}
	if c.Threshold == 0 {
		c.Threshold = 4.0
	}
	return c
}

// template is a gesture's reference feature series (raw, not normalised:
// the activity floor needs raw amplitudes).
type template struct {
	g      Gesture
	cenX   timeseries.Series
	aspect timeseries.Series
}

// Recognizer matches observed frame windows against gesture templates.
// Classification is safe for concurrent use once NewRecognizer returns (the
// templates are immutable and the per-length template cache is locked);
// concurrent callers should hold their own ClassifyScratch.
type Recognizer struct {
	cfg       Config
	rend      *scene.Renderer
	templates []template

	// ntMu guards ntCache: templates resampled to an observation length and
	// channel-normalised once, then reused by every Classify at that length
	// — the former per-call ResampleLinear/ZNormalize pair was the bulk of
	// Classify's allocations.
	ntMu    sync.RWMutex
	ntCache map[int][]normTemplate
}

// normTemplate is one gesture's template resampled to a window length, with
// the channel normalisation and activity statistics precomputed.
type normTemplate struct {
	g            Gesture
	tx, ty       timeseries.Series // norm-channelled (see normChannel)
	txStd, tyStd float64           // raw stds after resampling (activity gate)
}

// NewRecognizer builds templates by rendering each gesture over one cycle
// at the reference view.
func NewRecognizer(cfg Config, rend *scene.Renderer, view scene.View) (*Recognizer, error) {
	cfg = cfg.withDefaults()
	r := &Recognizer{cfg: cfg, rend: rend}
	for _, g := range Gestures() {
		tx, ty, err := r.featureSeries(g, view, 0, body.Options{}, nil, cfg.FramesPerCycle, 1)
		if err != nil {
			return nil, fmt.Errorf("gesture: template %v: %w", g, err)
		}
		r.templates = append(r.templates, template{g: g, cenX: tx, aspect: ty})
	}
	return r, nil
}

// featureSeries renders frames across cycles starting at phase0 and
// extracts both feature channels, reusing one frame buffer and one vision
// scratch across the whole window. It is the single render-and-extract
// loop behind both template building (phase0 = 0) and Observe, so the
// per-frame vision front half can never diverge between the two.
func (r *Recognizer) featureSeries(g Gesture, view scene.View, phase0 float64,
	opts body.Options, rng *rand.Rand, framesPerCycle, cycles int) (topX, topY timeseries.Series, err error) {

	n := framesPerCycle * cycles
	topX = make(timeseries.Series, 0, n)
	topY = make(timeseries.Series, 0, n)
	vs := vision.NewScratch()
	frame := &raster.Gray{}
	figs := make([]body.Figure, 1)
	for i := 0; i < n; i++ {
		phase := phase0 + float64(i)/float64(framesPerCycle)
		figs[0], err = FigureAt(g, phase, opts)
		if err != nil {
			return nil, nil, err
		}
		if _, err = r.rend.RenderFiguresInto(frame, figs, view, rng); err != nil {
			return nil, nil, err
		}
		f, err := extractFrame(vs, frame)
		if err != nil {
			return nil, nil, err
		}
		topX = append(topX, f.CenX)
		topY = append(topY, f.Aspect)
	}
	return topX, topY, nil
}

// Match is a gesture-recognition outcome.
type Match struct {
	Gesture Gesture
	Dist    float64
	Shift   int // phase shift (frames) of the best alignment
}

// ErrNoGesture is returned when no template passes the threshold.
var ErrNoGesture = errors.New("gesture: no gesture recognised")

// Observe renders one observation window of the given gesture (as the
// human performs it, with jitter/noise) from the view and classifies it.
// phase0 is the unknown starting phase — recognition must be invariant to
// it.
func (r *Recognizer) Observe(g Gesture, view scene.View, phase0 float64,
	opts body.Options, rng *rand.Rand) (Match, error) {

	topX, topY, err := r.featureSeries(g, view, phase0, opts, rng,
		r.cfg.FramesPerCycle, r.cfg.WindowCycles)
	if err != nil {
		return Match{}, err
	}
	return r.Classify(topX, topY)
}

// activityFloor is the raw feature standard deviation below which a channel
// counts as inactive (no motion in that axis) and normalises to the zero
// vector instead of unit variance — so matching a flat channel against an
// active template costs the natural √n penalty, while flat-vs-flat is free.
const activityFloor = 0.03

// normChannel z-normalises an active channel and zeroes an inactive one.
func normChannel(s timeseries.Series) timeseries.Series {
	return normChannelInto(nil, s, s.Std())
}

// normChannelInto is normChannel writing into dst (grown as needed), with
// the raw standard deviation supplied by the caller.
func normChannelInto(dst, s timeseries.Series, std float64) timeseries.Series {
	if std < activityFloor {
		if cap(dst) < len(s) {
			dst = make(timeseries.Series, len(s))
			return dst
		}
		dst = dst[:len(s)]
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	return s.ZNormalizeInto(dst)
}

// normTemplates returns the templates resampled to window length n with
// their channel normalisation precomputed, building and caching the set on
// first use of each length.
func (r *Recognizer) normTemplates(n int) ([]normTemplate, error) {
	r.ntMu.RLock()
	nts, ok := r.ntCache[n]
	r.ntMu.RUnlock()
	if ok {
		return nts, nil
	}
	r.ntMu.Lock()
	defer r.ntMu.Unlock()
	if nts, ok := r.ntCache[n]; ok {
		return nts, nil
	}
	nts = make([]normTemplate, 0, len(r.templates))
	for _, t := range r.templates {
		txRaw, err := t.cenX.ResampleLinear(n)
		if err != nil {
			return nil, err
		}
		tyRaw, err := t.aspect.ResampleLinear(n)
		if err != nil {
			return nil, err
		}
		nts = append(nts, normTemplate{
			g:     t.g,
			tx:    normChannel(txRaw),
			ty:    normChannel(tyRaw),
			txStd: txRaw.Std(),
			tyStd: tyRaw.Std(),
		})
	}
	if r.ntCache == nil {
		r.ntCache = make(map[int][]normTemplate)
	}
	r.ntCache[n] = nts
	return nts, nil
}

// ClassifyScratch holds the reusable buffers of one classification lane (the
// z-normalised observation channels). Not safe for concurrent use: one per
// goroutine, like the pipeline's recognition scratch.
type ClassifyScratch struct {
	zx, zy timeseries.Series
}

// Classify matches raw feature series against the templates with a fresh
// scratch. See ClassifyWith.
func (r *Recognizer) Classify(cenX, aspect timeseries.Series) (Match, error) {
	return r.ClassifyWith(&ClassifyScratch{}, cenX, aspect)
}

// ClassifyWith matches raw feature series against the templates. Channels
// are soft-gated on activity (see normChannel); the phase alignment comes
// from the channel pair with the most shared activity and the other channel
// must agree near that alignment. A completely inactive observation (a held
// static pose) matches nothing. With a warm scratch and template cache the
// steady state performs no allocations.
func (r *Recognizer) ClassifyWith(cs *ClassifyScratch, cenX, aspect timeseries.Series) (Match, error) {
	if len(cenX) == 0 || len(cenX) != len(aspect) {
		return Match{}, errors.New("gesture: bad feature series")
	}
	xStd, yStd := cenX.Std(), aspect.Std()
	if xStd < activityFloor && yStd < activityFloor {
		return Match{}, ErrNoGesture
	}
	nts, err := r.normTemplates(len(cenX))
	if err != nil {
		return Match{}, err
	}
	cs.zx = normChannelInto(cs.zx, cenX, xStd)
	cs.zy = normChannelInto(cs.zy, aspect, yStd)
	best := Match{Dist: math.Inf(1)}
	for _, t := range nts {
		// Pick the alignment channel: the one where both sides are active;
		// prefer the larger shared amplitude.
		xShared := math.Min(xStd, t.txStd)
		yShared := math.Min(yStd, t.tyStd)
		var dx, dy float64
		var shift int
		switch {
		case xShared >= activityFloor && xShared >= yShared:
			dx, shift, err = timeseries.MinRotationDist(cs.zx, t.tx)
			if err != nil {
				return Match{}, err
			}
			dy, err = alignedDist(cs.zy, t.ty, shift, 2)
		case yShared >= activityFloor:
			dy, shift, err = timeseries.MinRotationDist(cs.zy, t.ty)
			if err != nil {
				return Match{}, err
			}
			dx, err = alignedDist(cs.zx, t.tx, shift, 2)
		default:
			// No shared active channel: both distances are the mismatch
			// penalties at zero shift. (These errors used to be discarded,
			// so a length mismatch scored a silent perfect 0 here.)
			dx, err = alignedDist(cs.zx, t.tx, 0, 0)
			if err != nil {
				return Match{}, err
			}
			dy, err = alignedDist(cs.zy, t.ty, 0, 0)
		}
		if err != nil {
			return Match{}, err
		}
		total := math.Hypot(dx, dy)
		if total < best.Dist {
			best = Match{Gesture: t.g, Dist: total, Shift: shift}
		}
	}
	if math.IsInf(best.Dist, 1) || best.Dist > r.cfg.Threshold*math.Sqrt2 {
		return best, ErrNoGesture
	}
	return best, nil
}

// alignedDist is the Euclidean distance minimised over shifts within
// ±slack of the anchor alignment (anchors may be negative: shifts wrap
// circularly, like Series.Rotate).
func alignedDist(a, b timeseries.Series, anchor, slack int) (float64, error) {
	best := math.Inf(1)
	for s := anchor - slack; s <= anchor+slack; s++ {
		d, err := timeseries.EuclideanDistShifted(a, b, s)
		if err != nil {
			return 0, err
		}
		best = math.Min(best, d)
	}
	return best, nil
}
