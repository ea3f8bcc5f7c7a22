package promexport_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hypdb/internal/promexport"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// TestExpositionGolden pins the rendered exposition of a snapshot that
// populates every family class byte for byte: family order, HELP and TYPE
// text, label order, series order and value formatting. Regenerate with
//
//	go test ./internal/promexport -run TestExpositionGolden -update
func TestExpositionGolden(t *testing.T) {
	var got bytes.Buffer
	if err := promexport.Render(&got, fullSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (rerun with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition drifted from %s:\n%s", path, diffLines(string(want), got.String()))
	}
}
