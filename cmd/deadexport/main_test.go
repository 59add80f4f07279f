package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a module with one export of each exempt kind, one export used
// only by a second module wired in through replace, and one orphan.
const fixture = "testdata/fixture"

// gateFixture runs the gate over dir and returns its exit code and output.
func gateFixture(t *testing.T, dir string) (int, string) {
	t.Helper()
	var out strings.Builder
	code := run(dir, &out, &out)
	return code, out.String()
}

func TestOrphanedExportFails(t *testing.T) {
	code, out := gateFixture(t, fixture)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "internal/kit/orphan.go:4: func kit.Orphan ") {
		t.Fatalf("want exactly the orphan reported:\n%s", out)
	}
	if lines[1] != "deadexport: 1 finding(s), 1 //hdc:oracle marker(s)" {
		t.Fatalf("summary %q", lines[1])
	}
}

// TestExemptionsPass gates a copy of the fixture without the orphan: the
// oracle, the interface method, Unwrap, the test kit and the export only
// the consumer module uses must all pass.
func TestExemptionsPass(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || d.Name() == "orphan.go" {
			return err
		}
		rel, err := filepath.Rel(fixture, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	code, out := gateFixture(t, dir)
	if code != 0 || strings.TrimSpace(out) != "deadexport: ok, 1 //hdc:oracle marker(s)" {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// TestStaleOracleMarkerFails marks an export that has a caller: the marker
// would hide nothing, so the gate reports it.
func TestStaleOracleMarkerFails(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module stale\n\ngo 1.22\n",
		"internal/lib/lib.go": "// Package lib holds one marked export that is used.\npackage lib\n\n" +
			"// Used is called by main.\n//\n//hdc:oracle\nfunc Used() {}\n",
		"main.go": "package main\n\nimport \"stale/internal/lib\"\n\nfunc main() { lib.Used() }\n",
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out := gateFixture(t, dir)
	if code != 1 || !strings.Contains(out, "func lib.Used is marked //hdc:oracle but has a non-test use") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}
