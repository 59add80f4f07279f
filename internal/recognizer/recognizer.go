// Package recognizer assembles the paper's §IV real-time sign-recognition
// pipeline:
//
//	frame → global threshold → morphological clean-up → largest component →
//	Moore contour → centroid-distance time series → z-norm → PAA → SAX word →
//	database match (rotation- and mirror-invariant)
//
// with per-stage latency instrumentation so the experiment harness can
// reproduce the paper's timing discussion (38 ms @ 0°, 27 ms @ 65° on the
// authors' Python/OpenCV prototype; the shape to reproduce is "well inside a
// 30 fps budget, cheaper at high azimuth").
package recognizer

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"hdc/internal/body"
	"hdc/internal/raster"
	"hdc/internal/sax"
	"hdc/internal/scene"
	"hdc/internal/timeseries"
	"hdc/internal/vision"
)

// Config parameterises the pipeline. Zero fields take the defaults the
// repository calibrates in its experiments.
type Config struct {
	SignatureLen int     // contour signature samples (default 128)
	Segments     int     // SAX word length (default 16)
	Alphabet     int     // SAX alphabet size (default 5)
	MorphRadius  int     // open/close structuring radius (default 1)
	Threshold    float64 // exact-distance acceptance threshold (default 4.8)
	// Normalize selects the contour normalisation. The default (zero value)
	// is vision.NormAspect, which cancels axis-aligned foreshortening from
	// the drone's altitude (vertical) and relative azimuth (horizontal)
	// while keeping the diagonal second moment that separates No from Yes;
	// vision.NormNone and vision.NormWhiten are available for the ablation
	// experiment (E10b).
	Normalize vision.Normalization
	// ShiftWindowFrac, when positive, bounds the rotation-alignment search
	// to ±frac of the signature. The default (zero or negative) searches all
	// rotations — the Xi et al. shape-matching setting, which tolerates the
	// contour start point jumping between the raised hand and the head as
	// the view changes. The bounded variant is kept for the E10b ablation.
	ShiftWindowFrac float64
}

func (c Config) withDefaults() Config {
	if c.SignatureLen == 0 {
		c.SignatureLen = 128
	}
	if c.Segments == 0 {
		c.Segments = 16
	}
	if c.Alphabet == 0 {
		c.Alphabet = 5
	}
	if c.MorphRadius == 0 {
		c.MorphRadius = 1
	}
	if c.Threshold == 0 {
		c.Threshold = 4.8
	}
	if c.Normalize == 0 {
		c.Normalize = vision.NormAspect
	}
	return c
}

// StageTimings carries per-stage wall-clock durations of one recognition.
type StageTimings struct {
	Threshold time.Duration
	Morph     time.Duration
	Contour   time.Duration // component + trace + signature
	Encode    time.Duration // z-norm + PAA + symbolise
	Match     time.Duration // database search
	Total     time.Duration
}

// Result is the outcome of recognising one frame.
type Result struct {
	OK       bool      // true when a sign was accepted
	Sign     body.Sign // recognised sign (valid when OK)
	Label    string    // database label of the match
	Word     sax.Word  // SAX word of the query signature
	Match    sax.Match // full match diagnostics (nearest even if rejected)
	RunnerUp sax.Match // second-nearest entry (zero when the database has one entry)
	// Margin and Confidence measure how clearly the winning label beat the
	// nearest rival label (sax.RivalMargin over the top-4 matches):
	// exemplars of the winning sign do not count against it. Margin is the
	// absolute distance gap (+Inf with no competitor at all), Confidence
	// the relative margin in [0,1].
	Margin     float64
	Confidence float64
	Signature  timeseries.Series // z-normalised query signature
	Area       int               // silhouette pixel area
	Timings    StageTimings
}

// Recognizer binds a SAX database of reference signs to the vision
// pipeline. Build one with New and populate it with BuildReferences (or
// AddReference for custom exemplars).
//
// Concurrency: the configuration is immutable after New, and the reference
// database guards itself, so Recognize and RecognizeWith may be
// called from any number of goroutines once the references are built. The
// setup calls — BuildReferences, AddReference, LoadReferences — must complete
// before (or be externally serialised with) concurrent recognition.
type Recognizer struct {
	cfg  Config
	db   *sax.Database  // in-memory backend (nil after UseDictionary swaps it out)
	dict sax.Dictionary // active dictionary; == db unless UseDictionary replaced it
	enc  *sax.Encoder
}

// Scratch holds the per-worker reusable state of one recognition lane: the
// vision buffers that would otherwise be reallocated every frame, plus the
// database lookup scratch (candidate heap, top-k working set). Each worker
// goroutine owns one Scratch; the zero-configuration way to get one is
// NewScratch.
type Scratch struct {
	v    *vision.Scratch
	lk   *sax.LookupScratch
	topk [4]sax.Match
}

// NewScratch returns a fresh recognition scratch.
func NewScratch() *Scratch {
	return &Scratch{v: vision.NewScratch(), lk: sax.NewLookupScratch()}
}

// Vision exposes the scratch's vision buffers so custom pipeline stages
// (the gesture feature extractor) can share a worker's pooled front half
// instead of allocating their own planes. The same ownership rule applies:
// one goroutine at a time.
func (sc *Scratch) Vision() *vision.Scratch { return sc.v }

// scratchPool backs Recognize's per-call scratch so one-shot callers share
// the loop callers' allocation-free path.
var scratchPool = sync.Pool{
	New: func() any { return NewScratch() },
}

// New constructs a recognizer with an empty reference database.
func New(cfg Config) (*Recognizer, error) {
	cfg = cfg.withDefaults()
	enc, err := sax.NewEncoder(cfg.Segments, cfg.Alphabet)
	if err != nil {
		return nil, fmt.Errorf("recognizer: %w", err)
	}
	db, err := sax.NewDatabase(enc, cfg.SignatureLen)
	if err != nil {
		return nil, fmt.Errorf("recognizer: %w", err)
	}
	if cfg.ShiftWindowFrac > 0 {
		db.SetShiftWindowFrac(cfg.ShiftWindowFrac)
	}
	return &Recognizer{cfg: cfg, db: db, dict: db, enc: enc}, nil
}

// Config returns the effective configuration.
func (r *Recognizer) Config() Config { return r.cfg }

// Database exposes the underlying in-memory SAX database (read-mostly; used
// by the experiment harness for uniqueness matrices). It returns nil when
// UseDictionary has replaced the backend with an external dictionary such as
// the on-disk store — callers that need backend-agnostic access should use
// Dictionary instead.
func (r *Recognizer) Database() *sax.Database { return r.db }

// Dictionary returns the active reference dictionary — the built-in
// in-memory database by default, or whatever UseDictionary installed.
func (r *Recognizer) Dictionary() sax.Dictionary { return r.dict }

// UseDictionary replaces the reference backend with an external
// sax.Dictionary — typically a mapped on-disk store (internal/sax/store), so
// a drone serves million-entry dictionaries without parsing them at start-up.
// The dictionary's encoder parameters and series length must match this
// recognizer's configuration. Must not be called concurrently with
// recognition; after it returns, Database() reports nil and Save/Load of the
// in-memory database are unavailable.
func (r *Recognizer) UseDictionary(d sax.Dictionary) error {
	if d == nil {
		return errors.New("recognizer: nil dictionary")
	}
	if d.Encoder().Segments() != r.cfg.Segments ||
		d.Encoder().AlphabetSize() != r.cfg.Alphabet ||
		d.SeriesLen() != r.cfg.SignatureLen {
		return fmt.Errorf("recognizer: dictionary (w=%d a=%d n=%d) does not match config (w=%d a=%d n=%d)",
			d.Encoder().Segments(), d.Encoder().AlphabetSize(), d.SeriesLen(),
			r.cfg.Segments, r.cfg.Alphabet, r.cfg.SignatureLen)
	}
	r.dict = d
	r.db = nil
	return nil
}

// labelFor maps signs to database labels.
func labelFor(s body.Sign) string { return s.String() }

// signFor is the inverse of labelFor.
func signFor(label string) (body.Sign, bool) {
	for _, s := range []body.Sign{body.SignIdle, body.SignAttention, body.SignYes, body.SignNo} {
		if s.String() == label {
			return s, true
		}
	}
	return 0, false
}

// AddReference registers a raw reference signature under a sign label.
func (r *Recognizer) AddReference(s body.Sign, sig timeseries.Series) error {
	if !s.Valid() {
		return fmt.Errorf("recognizer: invalid sign %d", int(s))
	}
	return r.dict.Add(labelFor(s), sig)
}

// ReferenceAzimuths are the relative azimuths at which BuildReferences
// registers one exemplar per sign. The paper's prototype compared captures
// against "a database of strings"; with real imagery a single full-on
// exemplar covered the ±65° envelope, but our synthetic silhouettes carry
// less texture, so the database holds a frontal exemplar plus one per ±40°
// to restore the same envelope (documented as a substitution in DESIGN.md).
// Mirror matching covers the rear hemisphere.
var ReferenceAzimuths = []float64{0, -40, 40}

// BuildReferences renders each communicative sign at the canonical
// (paper-reference) altitude/distance and registers clean exemplar
// signatures at ReferenceAzimuths.
func (r *Recognizer) BuildReferences(rend *scene.Renderer, view scene.View) error {
	return r.BuildReferencesAt(rend, view, ReferenceAzimuths)
}

// BuildReferencesAt is BuildReferences with explicit exemplar azimuths
// (useful for the single-exemplar ablation).
func (r *Recognizer) BuildReferencesAt(rend *scene.Renderer, view scene.View, azimuths []float64) error {
	if len(azimuths) == 0 {
		return errors.New("recognizer: no reference azimuths")
	}
	for _, s := range body.AllSigns() {
		for _, az := range azimuths {
			v := view
			v.AzimuthDeg = view.AzimuthDeg + az
			frame, err := rend.Render(s, v, body.Options{}, nil)
			if err != nil {
				return fmt.Errorf("recognizer: reference %v @ %v°: %w", s, az, err)
			}
			sig, err := r.extractSignature(frame)
			if err != nil {
				return fmt.Errorf("recognizer: reference %v @ %v°: %w", s, az, err)
			}
			if err := r.dict.Add(labelFor(s), sig); err != nil {
				return err
			}
		}
	}
	return nil
}

// extractSignature runs the vision front half only (no timing).
func (r *Recognizer) extractSignature(frame *raster.Gray) (timeseries.Series, error) {
	mask := vision.OtsuBinarize(frame)
	mask = vision.Open(mask, r.cfg.MorphRadius)
	mask = vision.Close(mask, r.cfg.MorphRadius)
	sig, _, _, err := r.signatureOf(mask)
	return sig, err
}

// signatureOf applies the configured contour normalisation.
func (r *Recognizer) signatureOf(mask *vision.Binary) (timeseries.Series, vision.Contour, vision.Component, error) {
	return vision.ExtractSignatureNorm(mask, r.cfg.SignatureLen, r.cfg.Normalize)
}

// ErrNoSign is returned when the frame contains no acceptable sign.
var ErrNoSign = errors.New("recognizer: no sign recognised")

// Recognize runs the full pipeline over one frame, returning the match (or
// ErrNoSign with diagnostics in Result). All stages are timed. Scratch
// buffers come from a shared pool; workers that process frames in a loop
// should hold their own Scratch and call RecognizeWith instead.
func (r *Recognizer) Recognize(frame *raster.Gray) (Result, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return r.recognize(sc, frame)
}

// RecognizeWith is Recognize using the caller's per-worker scratch state, the
// steady-state-allocation-free path of the streaming pipeline. The returned
// Result is independent of the scratch and safe to retain.
func (r *Recognizer) RecognizeWith(sc *Scratch, frame *raster.Gray) (Result, error) {
	if sc == nil {
		return r.Recognize(frame)
	}
	return r.recognize(sc, frame)
}

// frontHalf runs the vision and encoding stages shared by the full and
// degraded paths — frame through SAX word, timings recorded into res — and
// returns the z-normalised signature and its word. t0 is the recognition's
// start instant; on error res.Timings.Total is already closed out.
func (r *Recognizer) frontHalf(sc *Scratch, frame *raster.Gray, res *Result, t0 time.Time) (timeseries.Series, sax.Word, error) {
	vs := sc.v

	mask := vs.Binarize(frame)
	t1 := time.Now()
	res.Timings.Threshold = t1.Sub(t0)

	mask = vs.Clean(mask, r.cfg.MorphRadius)
	t2 := time.Now()
	res.Timings.Morph = t2.Sub(t1)

	sig, _, comp, err := vs.ExtractSignatureNorm(mask, r.cfg.SignatureLen, r.cfg.Normalize)
	t3 := time.Now()
	res.Timings.Contour = t3.Sub(t2)
	if err != nil {
		res.Timings.Total = time.Since(t0)
		return nil, sax.Word{}, fmt.Errorf("recognizer: %w", err)
	}
	res.Area = comp.Area
	// The scratch-owned signature is normalised into a fresh series: the
	// Result escapes the worker, the scratch does not.
	z := sig.ZNormalize()
	res.Signature = z

	word, err := r.enc.EncodeZ(z)
	res.Timings.Encode = time.Since(t3)
	if err != nil {
		res.Timings.Total = time.Since(t0)
		return nil, sax.Word{}, fmt.Errorf("recognizer: %w", err)
	}
	res.Word = word
	return z, word, nil
}

// recognize is the shared implementation behind Recognize and its variants.
func (r *Recognizer) recognize(sc *Scratch, frame *raster.Gray) (Result, error) {
	var res Result
	t0 := time.Now()
	z, word, err := r.frontHalf(sc, frame, &res, t0)
	if err != nil {
		return res, err
	}
	t4 := time.Now()

	// Top-4 lookup: the nearest entry decides the sign; the distance margin
	// over the nearest *rival* label (other exemplars of the same sign do
	// not compete) becomes the confidence the monitor and negotiation
	// layers consume.
	matches, lerr := r.dict.LookupKZWith(sc.lk, z, word, 4, sc.topk[:0])
	t5 := time.Now()
	res.Timings.Match = t5.Sub(t4)
	res.Timings.Total = t5.Sub(t0)
	if lerr != nil {
		return res, lerr
	}
	if len(matches) == 0 {
		return res, ErrNoSign
	}
	match := matches[0]
	res.Match = match
	if len(matches) > 1 {
		res.RunnerUp = matches[1]
	}
	res.Margin, res.Confidence = sax.RivalMargin(matches)
	if math.IsInf(match.Dist, 1) || match.Dist > r.cfg.Threshold {
		return res, ErrNoSign
	}
	res.Label = match.Label
	if s, ok := signFor(match.Label); ok {
		res.Sign = s
	}
	res.OK = true
	return res, nil
}

// RecognizeDegraded is the overload/fault escape hatch: the same vision
// front half, but the dictionary match runs only stage 0 (the
// symbol-histogram lower bound — see sax.HistNearest) instead of the
// two-stage exact lookup cascade. It is cheap enough to run on a request
// goroutine without the worker pool, which is exactly when the serving layer
// uses it. The returned Result has no RunnerUp/Margin/Confidence (stage 0
// ranks by a bound, not exact distances) and Match.Dist is the bound — an
// underestimate — so acceptance against the threshold is optimistic: answers
// must be marked degraded on the wire. Scratch buffers come from the shared
// pool; loop callers use RecognizeDegradedWith.
func (r *Recognizer) RecognizeDegraded(frame *raster.Gray) (Result, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return r.RecognizeDegradedWith(sc, frame)
}

// RecognizeDegradedWith is RecognizeDegraded with a caller-owned scratch.
func (r *Recognizer) RecognizeDegradedWith(sc *Scratch, frame *raster.Gray) (Result, error) {
	if sc == nil {
		return r.RecognizeDegraded(frame)
	}
	var res Result
	t0 := time.Now()
	_, word, err := r.frontHalf(sc, frame, &res, t0)
	if err != nil {
		return res, err
	}
	t4 := time.Now()
	m, ok := r.dict.NearestHist(sc.lk, word)
	t5 := time.Now()
	res.Timings.Match = t5.Sub(t4)
	res.Timings.Total = t5.Sub(t0)
	if !ok {
		return res, ErrNoSign
	}
	res.Match = m
	if m.Dist > r.cfg.Threshold {
		return res, ErrNoSign
	}
	res.Label = m.Label
	if s, ok := signFor(m.Label); ok {
		res.Sign = s
	}
	res.OK = true
	return res, nil
}

// RecognizeView renders the given sign/view with rend and recognises the
// frame — the one-call form used by sweeps and examples.
func (r *Recognizer) RecognizeView(rend *scene.Renderer, s body.Sign, v scene.View, opts body.Options, rng *rand.Rand) (Result, error) {
	frame, err := rend.Render(s, v, opts, rng)
	if err != nil {
		return Result{}, err
	}
	return r.Recognize(frame)
}

// SaveReferences serialises the reference database (see sax.Database.Save):
// build the dictionary once on the ground station, ship it to drones. Only
// the in-memory backend can be saved; store-backed recognizers ship the
// store directory instead (store.Snapshot.CopyTo).
func (r *Recognizer) SaveReferences(w io.Writer) error {
	if r.db == nil {
		return errors.New("recognizer: external dictionary in use; save the store directory instead")
	}
	return r.db.Save(w)
}

// LoadReferences replaces the reference database with one previously saved.
// The stored encoder parameters must match this recognizer's configuration.
func (r *Recognizer) LoadReferences(rd io.Reader) error {
	db, err := sax.Load(rd)
	if err != nil {
		return fmt.Errorf("recognizer: %w", err)
	}
	if db.Encoder().Segments() != r.cfg.Segments ||
		db.Encoder().AlphabetSize() != r.cfg.Alphabet ||
		db.SeriesLen() != r.cfg.SignatureLen {
		return fmt.Errorf("recognizer: stored database (w=%d a=%d n=%d) does not match config (w=%d a=%d n=%d)",
			db.Encoder().Segments(), db.Encoder().AlphabetSize(), db.SeriesLen(),
			r.cfg.Segments, r.cfg.Alphabet, r.cfg.SignatureLen)
	}
	if r.cfg.ShiftWindowFrac > 0 {
		db.SetShiftWindowFrac(r.cfg.ShiftWindowFrac)
	}
	r.db = db
	r.dict = db
	return nil
}
