package failpoint

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsNil(t *testing.T) {
	defer DisableAll()
	if err := Inject("never/enabled"); err != nil {
		t.Fatalf("disabled inject: %v", err)
	}
}

func TestErrorPolicy(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/err", "error(disk full)"); err != nil {
		t.Fatal(err)
	}
	err := Inject("t/err")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Name != "t/err" || fe.Msg != "disk full" {
		t.Fatalf("bad error payload: %#v", err)
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("message lost: %v", err)
	}
	// Other points untouched.
	if err := Inject("t/other"); err != nil {
		t.Fatalf("unrelated point fired: %v", err)
	}
}

func TestCountLimit(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/count", "2*error()"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Inject("t/count"); err == nil {
			t.Fatalf("hit %d: want error", i)
		}
	}
	if err := Inject("t/count"); err != nil {
		t.Fatalf("exhausted point still fires: %v", err)
	}
	st := List()
	if len(st) != 1 || st[0].Hits != 3 || st[0].Fired != 2 {
		t.Fatalf("status = %+v", st)
	}
}

func TestDelayPolicy(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/delay", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject("t/delay"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delay too short: %v", d)
	}
}

func TestPanicPolicy(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/panic", "panic(boom)"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "boom") {
			t.Fatalf("recover = %v", r)
		}
	}()
	_ = Inject("t/panic")
	t.Fatal("unreachable")
}

func TestProbability(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/prob", "50%error()"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if Inject("t/prob") != nil {
			fired++
		}
	}
	if fired < n/4 || fired > 3*n/4 {
		t.Fatalf("50%% policy fired %d/%d", fired, n)
	}
	// 0% never fires.
	if err := Enable("t/never", "0%error()"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := Inject("t/never"); err != nil {
			t.Fatalf("0%% policy fired: %v", err)
		}
	}
}

func TestConfigure(t *testing.T) {
	defer DisableAll()
	err := Configure("t/a=error(x), t/b = 3*delay(1ms) ,")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(List()); got != 2 {
		t.Fatalf("points = %d", got)
	}
	if err := Configure("t/a=off"); err != nil {
		t.Fatal(err)
	}
	if got := List(); len(got) != 1 || got[0].Name != "t/b" {
		t.Fatalf("after off: %+v", got)
	}
	if err := Configure("garbage"); err == nil {
		t.Fatal("want error for missing =")
	}
	if err := Configure("t/c=frobnicate"); err == nil {
		t.Fatal("want error for unknown action")
	}
}

func TestSpecErrors(t *testing.T) {
	for _, spec := range []string{"", "200%error()", "x*error()", "0*error()", "delay(nope)", "delay(-1s)", "error(unterminated", "explode", "NaN%error", "nan%error", "+Inf%error"} {
		if _, err := parseSpec(spec); err == nil {
			t.Errorf("spec %q: want parse error", spec)
		}
	}
	for _, spec := range []string{"error", "error()", "panic", "5%error(e)", "2*panic(p)", "1%1*delay(0s)"} {
		if _, err := parseSpec(spec); err != nil {
			t.Errorf("spec %q: %v", spec, err)
		}
	}
}

// TestNaNProbabilityRejected pins that a NaN probability is a spec error,
// not a policy that fires on every hit.
func TestNaNProbabilityRejected(t *testing.T) {
	defer DisableAll()
	for _, spec := range []string{"NaN%error", "nan%error"} {
		if err := Enable("t/nan", spec); err == nil {
			t.Errorf("Enable(%q) armed a point", spec)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := Inject("t/nan"); err != nil {
			t.Fatalf("hit %d fired: %v", i, err)
		}
	}
}

// FuzzFailpointSpec checks that any spec either fails to arm or arms a
// policy eval can honour: a probability in [0, 1], an unlimited or positive
// count, and a known action.
func FuzzFailpointSpec(f *testing.F) {
	for _, spec := range []string{
		"error", "error(disk full)", "25%error(x)", "3*delay(5ms)", "10%2*panic",
		"NaN%error", "nan%error", "Inf%error", "-0%error", "1e400%error",
		"100%error", "0%error", "0x1p-2%error", "1_0%error", "%error",
		"0*error", "-1*error", "9223372036854775808*error", "delay(-1s)",
		"delay(9999999h)", "error(", "panic()", "", "off", "%%", "*", "()",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		defer DisableAll()
		if err := Enable("fuzz/spec", spec); err != nil {
			return
		}
		v, ok := points.Load("fuzz/spec")
		if !ok {
			t.Fatalf("spec %q: Enable returned nil but armed nothing", spec)
		}
		pol := v.(*point).pol
		if !(pol.pct >= 0 && pol.pct <= 1) {
			t.Errorf("spec %q: probability %v outside [0, 1]", spec, pol.pct)
		}
		if pol.count != -1 && pol.count < 1 {
			t.Errorf("spec %q: count %d", spec, pol.count)
		}
		switch pol.action {
		case actError, actDelay, actPanic:
		default:
			t.Errorf("spec %q: unknown action %d", spec, pol.action)
		}
		if pol.action == actDelay && pol.delay < 0 {
			t.Errorf("spec %q: negative delay %v", spec, pol.delay)
		}
	})
}

func TestReenableResetsPolicy(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/re", "1*error(a)"); err != nil {
		t.Fatal(err)
	}
	_ = Inject("t/re")
	if err := Enable("t/re", "error(b)"); err != nil {
		t.Fatal(err)
	}
	err := Inject("t/re")
	if err == nil || !strings.Contains(err.Error(), "b") {
		t.Fatalf("re-enabled policy: %v", err)
	}
	Disable("t/re")
	if err := Inject("t/re"); err != nil {
		t.Fatalf("disabled point fired: %v", err)
	}
	Disable("t/re") // double-disable is a no-op
	if armed.Load() != 0 {
		t.Fatalf("armed = %d after full disable", armed.Load())
	}
}

func TestConcurrentInject(t *testing.T) {
	defer DisableAll()
	if err := Enable("t/conc", "10%delay(0s)"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				_ = Inject("t/conc")
				if i == 250 {
					_ = Enable("t/conc2", "error()")
					Disable("t/conc2")
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// BenchmarkFailpointDisabled pins the disabled-hook overhead the whole
// design hangs on: one atomic load per Inject when nothing is armed. It is
// part of the benchgate key set.
func BenchmarkFailpointDisabled(b *testing.B) {
	DisableAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Inject(PipelineWorker); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailpointEnabledOther measures the cost at a hook whose name is
// NOT armed while some other point is — the registry-lookup slow path that
// every hook pays as soon as any failpoint is enabled anywhere.
func BenchmarkFailpointEnabledOther(b *testing.B) {
	DisableAll()
	if err := Enable("bench/other", "error()"); err != nil {
		b.Fatal(err)
	}
	defer DisableAll()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Inject(PipelineWorker); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInjectedSentinelOnlyMatchesWrapped pins the second practical case
// behind the sentinelerr analyzer: an armed error() policy returns
// *Error, which wraps ErrInjected via Unwrap — the bare sentinel itself
// is never returned. Chaos assertions written as `err == ErrInjected`
// would therefore never fire; errors.Is is the only working match.
func TestInjectedSentinelOnlyMatchesWrapped(t *testing.T) {
	if err := Enable("t/sentinel", "error(wrapped)"); err != nil {
		t.Fatal(err)
	}
	defer Disable("t/sentinel")
	err := Inject("t/sentinel")
	if err == nil {
		t.Fatal("armed failpoint returned nil")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(err, ErrInjected) = false for %v", err)
	}
	//hdclint:ignore sentinelerr this identity comparison is the subject under test: it must NOT match the wrapped sentinel
	if err == ErrInjected {
		t.Fatal("err == ErrInjected matched; injected errors are expected to wrap the sentinel, not be it")
	}
}
