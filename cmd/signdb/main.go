// Command signdb builds, inspects and verifies the sign reference database
// — the "database of strings" of §IV as a deployable artefact. It handles
// both forms of the artefact: the version-1 JSON file and the segmented
// on-disk store directory (internal/sax/store). -inspect and -verify accept
// either and dispatch on what they find.
//
//	go run ./cmd/signdb -build refs.json             # render + save references
//	go run ./cmd/signdb -inspect refs.json           # list entries and words
//	go run ./cmd/signdb -verify refs.json            # load and self-classify
//	go run ./cmd/signdb -convert refs.json -o s.dir  # JSON → mmap store directory
//	go run ./cmd/signdb -inspect s.dir               # segments, WAL, prune index
//	go run ./cmd/signdb -stats s.dir                 # machine-readable store stats
//	go run ./cmd/signdb -compact s.dir -full         # fold WAL + merge segments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hdc/internal/body"
	"hdc/internal/recognizer"
	"hdc/internal/scene"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: parse flags, dispatch, report. Exit
// codes: 0 ok, 1 operation failed, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("signdb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	build := fs.String("build", "", "render references and save to this file")
	inspect := fs.String("inspect", "", "print the entries of a saved database (file or store directory)")
	verify := fs.String("verify", "", "load a database (file or store directory) and self-classify all signs")
	convert := fs.String("convert", "", "convert a saved v1 JSON database to a store directory (requires -o)")
	out := fs.String("o", "", "output store directory for -convert")
	compact := fs.String("compact", "", "fold a store directory's WAL into sealed segments")
	full := fs.Bool("full", false, "with -compact: also merge all sealed segments into one")
	stats := fs.String("stats", "", "print a store directory's stats as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch {
	case *build != "":
		err = runBuild(*build, stdout)
	case *convert != "":
		if *out == "" {
			fmt.Fprintln(stderr, "signdb: -convert requires -o <dir>")
			return 2
		}
		err = runConvert(*convert, *out, stdout)
	case *compact != "":
		err = runCompact(*compact, *full, stdout)
	case *stats != "":
		err = runStats(*stats, stdout)
	case *inspect != "":
		if isStoreDir(*inspect) {
			err = runInspectStore(*inspect, stdout)
		} else {
			err = runInspect(*inspect, stdout)
		}
	case *verify != "":
		if isStoreDir(*verify) {
			err = runVerifyStore(*verify, stdout)
		} else {
			err = runVerify(*verify, stdout)
		}
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "signdb:", err)
		return 1
	}
	return 0
}

// runBuild renders the built-in references and saves them.
func runBuild(path string, stdout io.Writer) error {
	rec, err := newRecognizer(true)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.SaveReferences(f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "saved %d reference entries to %s\n", rec.Database().Len(), path)
	return nil
}

// runInspect lists a saved database's entries.
func runInspect(path string, stdout io.Writer) error {
	rec, err := loadInto(path)
	if err != nil {
		return err
	}
	db := rec.Database()
	fmt.Fprintf(stdout, "database: %d entries, word length %d, alphabet %d, series length %d\n",
		db.Len(), rec.Config().Segments, rec.Config().Alphabet, rec.Config().SignatureLen)
	for _, e := range db.Entries() {
		fmt.Fprintf(stdout, "  %-10s %s\n", e.Label, e.Word.Symbols)
	}
	return nil
}

// runVerify loads a database and checks every sign self-classifies.
func runVerify(path string, stdout io.Writer) error {
	rec, err := loadInto(path)
	if err != nil {
		return err
	}
	return selfClassify(rec, stdout)
}

// selfClassify renders every sign at the reference view and checks it
// classifies as itself through rec's active dictionary.
func selfClassify(rec *recognizer.Recognizer, stdout io.Writer) error {
	rend := scene.NewRenderer(scene.Config{})
	ok := true
	for _, s := range body.AllSigns() {
		res, err := rec.RecognizeView(rend, s, scene.ReferenceView(), body.Options{}, nil)
		status := "FAIL"
		if err == nil && res.OK && res.Sign == s {
			status = "ok"
		} else {
			ok = false
		}
		rival := ""
		if res.RunnerUp.Label != "" {
			rival = fmt.Sprintf(" (runner-up %s dist=%.2f)", res.RunnerUp.Label, res.RunnerUp.Dist)
		}
		fmt.Fprintf(stdout, "  %-10s → %-10s dist=%.2f conf=%.2f%s  [%s]\n",
			s, res.Match.Label, res.Match.Dist, res.Confidence, rival, status)
	}
	if !ok {
		return fmt.Errorf("verification failed")
	}
	fmt.Fprintln(stdout, "database verifies: all signs self-classify")
	return nil
}

// newRecognizer builds the calibrated recogniser, optionally with the
// built-in rendered references.
func newRecognizer(buildRefs bool) (*recognizer.Recognizer, error) {
	rec, err := recognizer.New(recognizer.Config{})
	if err != nil {
		return nil, err
	}
	if buildRefs {
		rend := scene.NewRenderer(scene.Config{})
		if err := rec.BuildReferences(rend, scene.ReferenceView()); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// loadInto loads a saved database into a fresh recogniser.
func loadInto(path string) (*recognizer.Recognizer, error) {
	rec, err := newRecognizer(false)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := rec.LoadReferences(f); err != nil {
		return nil, err
	}
	return rec, nil
}
