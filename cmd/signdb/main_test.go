package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildInspectVerifyRoundTrip drives the full binary surface through the
// extracted run(): build a dictionary, inspect it, verify it.
func TestBuildInspectVerifyRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "refs.json")
	var out, errOut bytes.Buffer

	if code := run([]string{"-build", path}, &out, &errOut); code != 0 {
		t.Fatalf("build exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "saved") {
		t.Fatalf("build output: %q", out.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("dictionary not written: %v", err)
	}

	out.Reset()
	if code := run([]string{"-inspect", path}, &out, &errOut); code != 0 {
		t.Fatalf("inspect exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"database:", "Attention", "Yes", "No"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"-verify", path}, &out, &errOut); code != 0 {
		t.Fatalf("verify exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "all signs self-classify") {
		t.Fatalf("verify output: %q", out.String())
	}
}

// TestErrorExits pins the failure taxonomy: usage errors exit 2, operation
// failures exit 1 with a diagnostic on stderr.
func TestErrorExits(t *testing.T) {
	var out, errOut bytes.Buffer

	// No mode selected → usage, exit 2.
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	// Unknown flag → parse error, exit 2.
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	// Missing dictionary → operation failure, exit 1.
	errOut.Reset()
	if code := run([]string{"-inspect", filepath.Join(t.TempDir(), "missing.json")}, &out, &errOut); code != 1 {
		t.Fatalf("missing file exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "signdb:") {
		t.Fatalf("stderr: %q", errOut.String())
	}
	// Corrupt dictionary → load failure, exit 1.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not a database"), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if code := run([]string{"-verify", bad}, &out, &errOut); code != 1 {
		t.Fatalf("corrupt file exit %d, want 1", code)
	}
}

// TestStoreLifecycle drives the store-directory surface end to end: build a
// JSON dictionary, convert it, inspect/stats/verify the directory, and
// compact it (a no-op fold that must still succeed and report).
func TestStoreLifecycle(t *testing.T) {
	tmp := t.TempDir()
	path := filepath.Join(tmp, "refs.json")
	dir := filepath.Join(tmp, "signs.store")
	var out, errOut bytes.Buffer

	if code := run([]string{"-build", path}, &out, &errOut); code != 0 {
		t.Fatalf("build exit %d: %s", code, errOut.String())
	}

	out.Reset()
	if code := run([]string{"-convert", path, "-o", dir}, &out, &errOut); code != 0 {
		t.Fatalf("convert exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "converted 9 entries") {
		t.Fatalf("convert output: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"-inspect", dir}, &out, &errOut); code != 0 {
		t.Fatalf("store inspect exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"store: 9 entries", "integrity ok", "seg-000001.seg", "prune index: 100.0%", "wal: 0 entries"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("store inspect missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if code := run([]string{"-stats", dir}, &out, &errOut); code != 0 {
		t.Fatalf("stats exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `"entries": 9`) {
		t.Fatalf("stats output: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"-verify", dir}, &out, &errOut); code != 0 {
		t.Fatalf("store verify exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "all signs self-classify") {
		t.Fatalf("store verify output: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"-compact", dir, "-full"}, &out, &errOut); code != 0 {
		t.Fatalf("compact exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "compacted") {
		t.Fatalf("compact output: %q", out.String())
	}

	// Converting onto an existing store must fail cleanly, and -convert
	// without -o is a usage error.
	if code := run([]string{"-convert", path, "-o", dir}, &out, &errOut); code != 1 {
		t.Fatalf("re-convert exit %d, want 1", code)
	}
	if code := run([]string{"-convert", path}, &out, &errOut); code != 2 {
		t.Fatalf("convert without -o exit %d, want 2", code)
	}
}
