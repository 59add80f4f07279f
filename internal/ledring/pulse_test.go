package ledring

import "testing"

// pulse_test.go is the malformed-train table for the pulse classifier: every
// frame pair a bystander could misread — truncated rings, mixed colours,
// steady displays, the deprecated vertical-array animation, undefined colour
// pairs — must return an error, and the two defined pulses must classify in
// either phase order. The animation round-trip lives in ledring_test.go.

// ring returns a whole ring of n LEDs in colour c.
func ring(n int, c Color) []Color {
	out := make([]Color, n)
	for i := range out {
		out[i] = c
	}
	return out
}

func TestClassifyPulseTable(t *testing.T) {
	tests := []struct {
		name    string
		a, b    []Color
		want    Pulse
		wantErr bool
	}{
		{name: "nil frames", a: nil, b: nil, wantErr: true},
		{name: "empty frames", a: []Color{}, b: []Color{}, wantErr: true},
		{name: "one frame missing", a: ring(8, Green), b: nil, wantErr: true},
		{name: "take-off", a: ring(8, Green), b: ring(8, White), want: PulseTakeOff},
		{name: "take-off reversed phase", a: ring(8, White), b: ring(8, Green), want: PulseTakeOff},
		{name: "landing", a: ring(8, White), b: ring(8, Red), want: PulseLanding},
		{name: "landing reversed phase", a: ring(8, Red), b: ring(8, White), want: PulseLanding},
		{
			// Frame sizes need not match — the observer reads colours, not
			// geometry; a partially occluded second frame still classifies.
			name: "truncated second frame",
			a:    ring(12, Green), b: ring(3, White),
			want: PulseTakeOff,
		},
		{name: "single-LED frames", a: ring(1, White), b: ring(1, Red), want: PulseLanding},
		{name: "steady green", a: ring(8, Green), b: ring(8, Green), wantErr: true},
		{name: "steady red danger", a: ring(8, Red), b: ring(8, Red), wantErr: true},
		{name: "green-red not a pulse", a: ring(8, Green), b: ring(8, Red), wantErr: true},
		{name: "off-white not a pulse", a: ring(8, Off), b: ring(8, White), wantErr: true},
		{
			name: "mixed-colour frame",
			a:    []Color{Green, Green, White, Green}, b: ring(4, White),
			wantErr: true,
		},
		{
			name: "garbage colour frame",
			a:    ring(4, Color(9)), b: ring(4, Color(9)),
			wantErr: true,
		},
		{
			// One flipped LED (a misread pixel) breaks the whole-ring
			// requirement rather than producing a wrong pulse.
			name: "single corrupted LED",
			a:    append(ring(7, Green), Red), b: ring(8, White),
			wantErr: true,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ClassifyPulse(tc.a, tc.b)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("classified %v/%v as %v, want error", tc.a, tc.b, got)
				}
				if got != PulseNone {
					t.Fatalf("error path must return PulseNone, got %v", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ClassifyPulse(%v, %v): %v", tc.a, tc.b, err)
			}
			if got != tc.want {
				t.Fatalf("classified %v/%v as %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestStartPulseValidationTable(t *testing.T) {
	tests := []struct {
		name    string
		pulse   Pulse
		wantErr bool
	}{
		{name: "none rejected", pulse: PulseNone, wantErr: true},
		{name: "take-off", pulse: PulseTakeOff},
		{name: "landing", pulse: PulseLanding},
		{name: "out of range", pulse: Pulse(42), wantErr: true},
		{name: "negative", pulse: Pulse(-1), wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(Options{})
			if err != nil {
				t.Fatal(err)
			}
			err = r.StartPulse(tc.pulse)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("StartPulse(%v) accepted", tc.pulse)
				}
				// A rejected pulse must leave the safety default untouched.
				if r.pulse != PulseNone || !IsDanger(r.LEDs()) {
					t.Fatalf("rejected pulse disturbed the display: %v", r.LEDs())
				}
				return
			}
			if err != nil {
				t.Fatalf("StartPulse(%v): %v", tc.pulse, err)
			}
			if r.pulse != tc.pulse {
				t.Fatalf("active pulse %v, want %v", r.pulse, tc.pulse)
			}
		})
	}
}
