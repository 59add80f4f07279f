// Package scene renders the synthetic drone-camera frames that substitute
// for the paper's real footage (§IV, Fig 4): a posed signaller viewed from a
// drone at a given altitude, stand-off distance and relative azimuth, as a
// grayscale frame with optional blur, sensor noise and background clutter.
//
// The geometry matches the paper's experiment: the reference capture is the
// signaller full-on (azimuth 0°) at 5 m altitude and 3 m horizontal
// distance; sweeps vary altitude (2–5 m) and relative azimuth (0–65° and
// beyond, into the dead angle).
package scene

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hdc/internal/body"
	"hdc/internal/geom"
	"hdc/internal/raster"
)

// View describes the drone's viewpoint relative to the signaller, who
// stands at the world origin facing the drone's azimuth-0 position.
type View struct {
	AltitudeM  float64 // drone altitude above ground (meters)
	DistanceM  float64 // horizontal stand-off distance (meters)
	AzimuthDeg float64 // relative azimuth: 0 = full-on, 90 = side view
}

// Validate checks physical plausibility.
func (v View) Validate() error {
	if v.AltitudeM < 0.2 || v.AltitudeM > 120 {
		return fmt.Errorf("scene: altitude %.2f m out of range", v.AltitudeM)
	}
	if v.DistanceM < 0.5 || v.DistanceM > 500 {
		return fmt.Errorf("scene: distance %.2f m out of range", v.DistanceM)
	}
	return nil
}

// String implements fmt.Stringer.
func (v View) String() string {
	return fmt.Sprintf("alt=%.1fm dist=%.1fm az=%.0f°", v.AltitudeM, v.DistanceM, v.AzimuthDeg)
}

// Config controls the virtual camera and degradation model.
type Config struct {
	Width      int     // frame width (default 256)
	Height     int     // frame height (default 256)
	VFovDeg    float64 // vertical field of view (default 50°)
	Background uint8   // background intensity (default 210)
	Foreground uint8   // signaller intensity (default 30)
	BlurRadius int     // box-blur radius applied after drawing (default 1)
	NoiseSigma float64 // Gaussian sensor noise σ (default 4)
	SaltPepper float64 // fraction of impulsive noise pixels (default 0)
	Clutter    int     // number of random background clutter blobs (default 0)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 256
	}
	if c.Height == 0 {
		c.Height = 256
	}
	if c.VFovDeg == 0 {
		c.VFovDeg = 50
	}
	if c.Background == 0 {
		c.Background = 210
	}
	if c.Foreground == 0 {
		c.Foreground = 30
	}
	if c.BlurRadius == 0 {
		c.BlurRadius = 1
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 4
	}
	return c
}

// Renderer draws signaller frames. The renderer itself is stateless beyond
// its immutable configuration, so one Renderer may serve any number of
// goroutines concurrently — each call draws into its own frame (or the
// caller-provided one for the Into variants) and randomness flows only
// through the rng argument, which must not be shared between goroutines.
type Renderer struct {
	cfg Config
}

// NewRenderer builds a renderer with the given configuration (zero fields
// take defaults).
func NewRenderer(cfg Config) *Renderer {
	return &Renderer{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration.
func (r *Renderer) Config() Config { return r.cfg }

// ErrNotVisible is returned when the signaller projects entirely outside
// the frame.
var ErrNotVisible = errors.New("scene: signaller outside the frame")

// Render draws the posed signaller from the given view. rng may be nil for a
// clean (noise-free, clutter-free) frame.
func (r *Renderer) Render(sign body.Sign, v View, opts body.Options, rng *rand.Rand) (*raster.Gray, error) {
	return r.RenderInto(nil, sign, v, opts, rng)
}

// RenderInto is Render drawing into dst (resized as needed), the
// reusable-buffer path of the streaming pipeline: producers pull frames from
// a raster.Pool, render into them and submit them downstream. A nil dst
// allocates, making RenderInto(nil, ...) equivalent to Render.
func (r *Renderer) RenderInto(dst *raster.Gray, sign body.Sign, v View, opts body.Options, rng *rand.Rand) (*raster.Gray, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	fig, err := body.NewFigure(sign, opts)
	if err != nil {
		return nil, err
	}
	return r.RenderFiguresInto(dst, []body.Figure{fig}, v, rng)
}

// RenderFigure draws an explicit figure (already posed/jittered) from the
// view.
func (r *Renderer) RenderFigure(fig body.Figure, v View, rng *rand.Rand) (*raster.Gray, error) {
	return r.RenderFigures([]body.Figure{fig}, v, rng)
}

// RenderFigures draws several world-placed figures from the view (the first
// is the primary signaller at the origin the camera aims at; the rest are
// bystanders with their joints placed elsewhere in the world). At least
// one figure must be visible.
func (r *Renderer) RenderFigures(figs []body.Figure, v View, rng *rand.Rand) (*raster.Gray, error) {
	return r.RenderFiguresInto(nil, figs, v, rng)
}

// RenderFiguresInto is RenderFigures drawing into dst (resized as needed); a
// nil dst allocates.
func (r *Renderer) RenderFiguresInto(dst *raster.Gray, figs []body.Figure, v View, rng *rand.Rand) (*raster.Gray, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if len(figs) == 0 {
		return nil, errors.New("scene: no figures")
	}
	cfg := r.cfg
	img := dst
	if img == nil {
		var err error
		img, err = raster.NewGray(cfg.Width, cfg.Height)
		if err != nil {
			return nil, err
		}
	} else if err := img.Resize(cfg.Width, cfg.Height); err != nil {
		// Resize (not Reset): the Fill below overwrites every pixel, so
		// clearing first would be a wasted full-frame pass.
		return nil, err
	}
	img.Fill(cfg.Background)

	// Drone position: azimuth 0 puts the drone on the +Y axis (which the
	// signaller faces), positive azimuth walks it clockwise around the
	// signaller.
	az := geom.Deg2Rad(v.AzimuthDeg)
	eye := geom.V3(v.DistanceM*math.Sin(az), v.DistanceM*math.Cos(az), v.AltitudeM)
	target := geom.V3(0, 0, figs[0].Height*0.5)
	cam := geom.NewCamera(eye, target, geom.Deg2Rad(cfg.VFovDeg), cfg.Width, cfg.Height)

	// Optional clutter: dark blobs scattered on the ground plane, drawn
	// before the signaller so they never occlude it.
	if rng != nil && cfg.Clutter > 0 {
		r.drawClutter(img, cam, rng)
	}

	drawn := 0
	for _, fig := range figs {
		drawn += r.drawFigure(img, cam, fig)
	}
	if drawn == 0 {
		return nil, ErrNotVisible
	}

	if cfg.BlurRadius > 0 {
		img.BoxBlur(cfg.BlurRadius, 2)
	}
	if rng != nil {
		img.AddGaussianNoise(rng, cfg.NoiseSigma)
		img.AddSaltPepper(rng, cfg.SaltPepper)
	}
	return img, nil
}

// drawFigure rasterises one figure, returning how many of its parts landed
// inside the frame.
func (r *Renderer) drawFigure(img *raster.Gray, cam *geom.Camera, fig body.Figure) int {
	cfg := r.cfg
	drawn := 0
	for _, c := range fig.Capsules {
		pa, errA := cam.Project(c.A)
		pb, errB := cam.Project(c.B)
		if errA != nil || errB != nil {
			continue
		}
		depth := cam.Depth(c.A.Add(c.B).Scale(0.5))
		pxr := cam.PixelsPerMeterAt(depth) * c.Radius
		if pxr < 0.5 {
			pxr = 0.5
		}
		img.StrokeLine(pa.X, pa.Y, pb.X, pb.Y, pxr, cfg.Foreground)
		if inFrame(pa, cfg) || inFrame(pb, cfg) {
			drawn++
		}
	}
	if ph, err := cam.Project(fig.HeadCenter); err == nil {
		pxr := cam.PixelsPerMeterAt(cam.Depth(fig.HeadCenter)) * fig.HeadRadius
		img.FillDisc(ph.X, ph.Y, pxr, cfg.Foreground)
		if inFrame(ph, cfg) {
			drawn++
		}
	}
	return drawn
}

func inFrame(p geom.Vec2, cfg Config) bool {
	return p.X >= 0 && p.X < float64(cfg.Width) && p.Y >= 0 && p.Y < float64(cfg.Height)
}

// drawClutter scatters small dark ground blobs (stones, shadows, crates)
// around the signaller. Blob sizes stay well below the signaller's
// silhouette so largest-component selection rejects them — unless the test
// deliberately cranks Clutter up.
func (r *Renderer) drawClutter(img *raster.Gray, cam *geom.Camera, rng *rand.Rand) {
	for i := 0; i < r.cfg.Clutter; i++ {
		// Random ground position 1.5–6 m away from the signaller.
		ang := rng.Float64() * 2 * math.Pi
		rad := 1.5 + rng.Float64()*4.5
		p := geom.V3(rad*math.Cos(ang), rad*math.Sin(ang), 0.05)
		px, err := cam.Project(p)
		if err != nil {
			continue
		}
		size := cam.PixelsPerMeterAt(cam.Depth(p)) * (0.05 + rng.Float64()*0.12)
		shade := uint8(40 + rng.Intn(60))
		img.FillDisc(px.X, px.Y, size, shade)
	}
}

// ReferenceView is the paper's canonical capture geometry: 5 m altitude,
// 3 m horizontal distance, full-on (0° azimuth).
func ReferenceView() View {
	return View{AltitudeM: 5, DistanceM: 3, AzimuthDeg: 0}
}
